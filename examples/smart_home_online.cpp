// Smart-home scenario for the distributed online algorithm (Algorithm 3):
// four wall-mounted chargers in a 6 m x 6 m room; devices (sensors, a tablet,
// a robot vacuum dock) raise charging tasks at different times of day, and
// the chargers renegotiate orientations on each arrival over the broadcast
// bus, paying the rescheduling delay tau.
//
//   $ ./smart_home_online [--colors C]
#include <iostream>

#include "dist/online.hpp"
#include "geom/angle.hpp"
#include "model/network.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace haste;
  const util::Flags flags = util::Flags::parse(argc, argv);
  static constexpr std::string_view kFlags[] = {"colors"};
  if (flags.reject_unknown("smart_home_online", kFlags)) return 2;

  model::PowerModel power;
  power.alpha = 60.0;
  power.beta = 0.8;
  power.radius = 7.0;
  power.charging_angle = geom::deg_to_rad(70.0);
  power.receiving_angle = geom::deg_to_rad(150.0);

  model::TimeGrid time;
  time.slot_seconds = 60.0;
  time.rho = 1.0 / 10.0;
  time.tau = 1;  // one slot to renegotiate after an arrival

  // Chargers on the four walls, roughly facing inward (orientation is
  // re-decided by the scheduler; positions are what matters).
  std::vector<model::Charger> chargers = {
      {{3.0, 0.0}}, {{6.0, 3.0}}, {{3.0, 6.0}}, {{0.0, 3.0}}};

  struct Device {
    const char* name;
    model::Task task;
  };
  const auto task = [](double x, double y, double facing_deg, int release, int end,
                       double energy) {
    model::Task t;
    t.position = {x, y};
    t.orientation = geom::deg_to_rad(facing_deg);
    t.release_slot = release;
    t.end_slot = end;
    t.required_energy = energy;
    t.weight = 1.0 / 6.0;
    return t;
  };
  // Devices face outward toward the walls so their 150-degree receiving
  // sectors take in at least one wall-mounted charger.
  std::vector<Device> devices = {
      {"door sensor", task(1.0, 1.0, 315.0, 0, 20, 2500.0)},   // sees south wall
      {"window sensor", task(5.2, 1.2, 25.0, 0, 18, 2200.0)},  // sees east wall
      {"thermostat", task(3.1, 4.8, 90.0, 3, 22, 3000.0)},     // sees north wall
      {"tablet", task(2.0, 3.0, 180.0, 6, 16, 6000.0)},        // arrives mid-run
      {"vacuum dock", task(4.5, 4.5, 340.0, 10, 26, 5000.0)},  // sees east wall
      {"camera", task(0.8, 5.0, 250.0, 12, 24, 2800.0)},       // sees west wall
  };

  std::vector<model::Task> tasks;
  tasks.reserve(devices.size());
  for (const Device& d : devices) tasks.push_back(d.task);
  const model::Network net(chargers, tasks, power, time);

  dist::OnlineConfig config;
  config.colors = static_cast<int>(flags.get_int("colors", 4));
  config.samples = 4 * config.colors;
  config.seed = 7;

  std::cout << "running distributed online HASTE over " << net.horizon()
            << " one-minute slots (tau = " << time.tau << ", C = " << config.colors
            << ")...\n";
  const dist::OnlineResult result = dist::run_online(net, config);

  util::Table table({"device", "arrives", "deadline", "harvested(J)", "needed(J)",
                     "utility"});
  for (std::size_t j = 0; j < devices.size(); ++j) {
    table.add_row({devices[j].name, std::to_string(devices[j].task.release_slot),
                   std::to_string(devices[j].task.end_slot),
                   util::format_fixed(result.evaluation.task_energy[j], 0),
                   util::format_fixed(devices[j].task.required_energy, 0),
                   util::format_fixed(result.evaluation.task_utility[j], 3)});
  }
  table.print(std::cout);

  std::cout << "\noverall utility " << util::format_fixed(result.evaluation.weighted_utility, 4)
            << " of " << util::format_fixed(net.utility_upper_bound(), 2)
            << "; negotiation: " << result.negotiations << " re-plans, "
            << result.messages << " broadcasts (" << result.message_bytes
            << " bytes) in " << result.rounds << " rounds, "
            << result.evaluation.switches << " orientation switches\n";
  return 0;
}
