// Warehouse robustness scenario: asset trackers in a storage hall are kept
// alive by ceiling-mounted directional chargers. Mid-shift, chargers start
// failing; the online negotiation re-plans around each outage. The example
// compares the healthy run against escalating failure patterns and writes an
// SVG snapshot of the post-failure field.
//
//   $ ./warehouse_failures [--svg out.svg] [--seed S]
#include <iostream>

#include "dist/online.hpp"
#include "sim/scenario.hpp"
#include "sim/svg.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace haste;
  const util::Flags flags = util::Flags::parse(argc, argv);
  static constexpr std::string_view kFlags[] = {"seed", "svg"};
  if (flags.reject_unknown("warehouse_failures", kFlags)) return 2;
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 11));

  // A 30 m x 30 m hall: 9 chargers in a ceiling grid, 30 trackers raising
  // tasks through the shift (Poisson arrivals).
  sim::ScenarioConfig config;
  config.field_width = 30.0;
  config.field_height = 30.0;
  config.chargers = 9;
  config.tasks = 30;
  config.power.radius = 14.0;
  config.energy_min_j = 2'000.0;
  config.energy_max_j = 6'000.0;
  config.duration_min_slots = 8;
  config.duration_max_slots = 30;
  config.arrivals = sim::ArrivalProcess::kPoisson;
  config.poisson_rate_per_slot = 2.0;

  util::Rng rng(seed);
  const model::Network net = sim::generate_scenario(config, rng);
  std::cout << "warehouse: " << net.charger_count() << " ceiling chargers, "
            << net.task_count() << " tracker tasks over " << net.horizon()
            << " minutes\n\n";

  struct Pattern {
    const char* name;
    std::vector<dist::ChargerFailure> failures;
  };
  const std::vector<Pattern> patterns = {
      {"healthy", {}},
      {"one failure (charger 3 at t=10)", {{3, 10}}},
      {"cascading (3@10, 5@15, 0@20)", {{3, 10}, {5, 15}, {0, 20}}},
      {"half the fleet at t=5", {{0, 5}, {2, 5}, {4, 5}, {6, 5}}},
  };

  util::Table table({"pattern", "utility", "re-plans", "messages", "switches"});
  dist::OnlineResult last;
  for (const Pattern& pattern : patterns) {
    dist::OnlineConfig online;
    online.colors = 2;
    online.samples = 4;
    online.failures = pattern.failures;
    const dist::OnlineResult result = dist::run_online(net, online);
    table.add_row({pattern.name,
                   util::format_fixed(result.evaluation.weighted_utility /
                                          net.utility_upper_bound(),
                                      4),
                   std::to_string(result.negotiations),
                   std::to_string(result.messages),
                   std::to_string(result.evaluation.switches)});
    last = result;
  }
  table.print(std::cout);
  std::cout << "\nutility degrades gracefully: survivors re-negotiate to cover "
               "what the dead chargers dropped.\n";

  // Telemetry of the last (worst) pattern: every re-plan with its trigger.
  std::cout << "\nre-plan log (half-fleet pattern):\n";
  util::Table log_table({"t", "trigger", "known tasks", "alive", "messages", "rounds"});
  for (const dist::NegotiationRecord& record : last.log) {
    log_table.add_row({std::to_string(record.event_slot),
                       record.trigger == dist::ReplanTrigger::kFailure ? "failure"
                                                                       : "arrival",
                       std::to_string(record.known_tasks),
                       std::to_string(record.alive_chargers),
                       std::to_string(record.messages),
                       std::to_string(record.rounds)});
  }
  log_table.print(std::cout);

  if (flags.has("svg")) {
    const std::string path = flags.get("svg", "warehouse.svg");
    // Snapshot the worst pattern shortly after the mass failure.
    sim::save_svg(path, net, &last.schedule, 8, &last.evaluation);
    std::cout << "post-failure snapshot written to " << path << "\n";
  }
  return 0;
}
