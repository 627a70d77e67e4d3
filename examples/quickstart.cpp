// Quickstart: build a small directional charger network by hand, run the
// centralized offline scheduler (Algorithm 2), and inspect the resulting
// schedule and per-task utilities.
//
//   $ ./quickstart
//
// Walks through the whole public API surface: PowerModel, Task/Charger,
// Network, OfflineConfig/schedule_offline, and evaluate_schedule.
#include <iostream>

#include "core/evaluate.hpp"
#include "core/offline.hpp"
#include "geom/angle.hpp"
#include "model/network.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace haste;
  if (util::Flags::parse(argc, argv).reject_unknown("quickstart", {})) return 2;

  // 1. Hardware model: 60-degree charging sectors, 120-degree receiving
  //    sectors, 8 m range; power = alpha / (d + beta)^2.
  model::PowerModel power;
  power.alpha = 100.0;
  power.beta = 1.0;
  power.radius = 8.0;
  power.charging_angle = geom::deg_to_rad(60.0);
  power.receiving_angle = geom::deg_to_rad(120.0);

  // 2. Time model: 1-minute slots; switching costs the first 5 seconds of a
  //    slot (rho = 1/12).
  model::TimeGrid time;
  time.slot_seconds = 60.0;
  time.rho = 1.0 / 12.0;

  // 3. Three rotatable chargers along a corridor.
  std::vector<model::Charger> chargers = {
      {{0.0, 0.0}}, {{6.0, 0.0}}, {{12.0, 0.0}}};

  // 4. Four charging tasks: position, facing, [release, end) slots, required
  //    energy (J), weight.
  const auto task = [](double x, double y, double facing_deg, int release, int end,
                       double energy) {
    model::Task t;
    t.position = {x, y};
    t.orientation = geom::deg_to_rad(facing_deg);
    t.release_slot = release;
    t.end_slot = end;
    t.required_energy = energy;
    t.weight = 0.25;
    return t;
  };
  std::vector<model::Task> tasks = {
      task(2.0, 2.0, 225.0, 0, 8, 4000.0),   // faces charger 0
      task(4.0, -1.5, 135.0, 0, 6, 3000.0),  // between chargers 0 and 1
      task(8.0, 1.5, 225.0, 2, 10, 5000.0),  // near charger 1/2
      task(11.0, -2.0, 90.0, 4, 12, 2500.0), // faces up toward charger 2
  };

  // 5. The immutable problem instance. Coverage, neighbor sets and the
  //    horizon are precomputed here.
  const model::Network net(chargers, tasks, power, time);
  std::cout << "network: " << net.charger_count() << " chargers, " << net.task_count()
            << " tasks, horizon " << net.horizon() << " slots\n";
  for (model::ChargerIndex i = 0; i < net.charger_count(); ++i) {
    std::cout << "  charger " << i << " can serve " << net.coverable_tasks(i).size()
              << " task(s), neighbors: " << net.neighbors(i).size() << "\n";
  }

  // 6. Run the centralized offline scheduler (TabularGreedy, C = 4).
  core::OfflineConfig config;
  config.colors = 4;
  config.samples = 16;
  config.seed = 1;
  const core::OfflineResult result = core::schedule_offline(net, config);

  // 7. Play the schedule against the physical model (switching delay
  //    included) and report.
  const core::EvaluationResult eval = core::evaluate_schedule(net, result.schedule);

  util::Table schedule_table({"charger", "slot", "orientation(deg)"});
  for (model::ChargerIndex i = 0; i < net.charger_count(); ++i) {
    for (model::SlotIndex k = 0; k < net.horizon(); ++k) {
      const model::SlotAssignment a = result.schedule.assignment(i, k);
      if (a.has_value()) {
        schedule_table.add_row({std::to_string(i), std::to_string(k),
                                util::format_fixed(geom::rad_to_deg(*a), 1)});
      }
    }
  }
  std::cout << "\nassigned orientations (unassigned slots persist the previous "
               "angle):\n";
  schedule_table.print(std::cout);

  util::Table utility_table({"task", "harvested(J)", "required(J)", "utility"});
  for (std::size_t j = 0; j < tasks.size(); ++j) {
    utility_table.add_row({std::to_string(j + 1),
                           util::format_fixed(eval.task_energy[j], 1),
                           util::format_fixed(tasks[j].required_energy, 1),
                           util::format_fixed(eval.task_utility[j], 4)});
  }
  std::cout << "\nper-task outcome:\n";
  utility_table.print(std::cout);
  std::cout << "\noverall weighted utility: "
            << util::format_fixed(eval.weighted_utility, 4) << " (upper bound "
            << util::format_fixed(net.utility_upper_bound(), 2) << "), "
            << eval.switches << " orientation switches\n";
  return 0;
}
