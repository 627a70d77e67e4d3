// Sensor-farm scenario: a field of wireless rechargeable sensors (the
// paper's motivating application) with clustered deployment. Compares every
// scheduler in the library — offline and online — on the same topologies and
// prints a ranking, demonstrating the sim::run_trials Monte-Carlo harness.
//
//   $ ./sensor_farm_comparison [--trials N] [--tasks M] [--chargers N]
#include <algorithm>
#include <iostream>

#include "sim/sweep.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace haste;
  const util::Flags flags = util::Flags::parse(argc, argv);
  static constexpr std::string_view kFlags[] = {"trials", "chargers", "tasks"};
  if (flags.reject_unknown("sensor_farm_comparison", kFlags)) return 2;
  const int trials = static_cast<int>(flags.get_int("trials", 5));

  // Clustered farm: tasks concentrate around the field center (Gaussian), a
  // harder regime than uniform (see the paper's Fig. 17 discussion).
  sim::ScenarioConfig config = sim::ScenarioConfig::paper_default();
  config.chargers = static_cast<int>(flags.get_int("chargers", 25));
  config.tasks = static_cast<int>(flags.get_int("tasks", 80));
  config.task_placement = sim::Placement::kGaussian;
  config.gaussian_sigma_x = 12.0;
  config.gaussian_sigma_y = 12.0;
  config.duration_min_slots = 8;
  config.duration_max_slots = 60;
  config.release_window_slots = 30;

  const std::vector<sim::Variant> variants = {
      {"HASTE offline C=4", sim::Algorithm::kOfflineHaste, sim::AlgoParams{4, 16, 1}},
      {"HASTE offline C=1", sim::Algorithm::kOfflineHaste, sim::AlgoParams{1, 1, 1}},
      {"HASTE online C=1", sim::Algorithm::kOnlineHaste, sim::AlgoParams{1, 1, 1}},
      {"GreedyUtility offline", sim::Algorithm::kOfflineGreedyUtility, {}},
      {"GreedyUtility online", sim::Algorithm::kOnlineGreedyUtility, {}},
      {"GreedyCover offline", sim::Algorithm::kOfflineGreedyCover, {}},
      {"GreedyCover online", sim::Algorithm::kOnlineGreedyCover, {}},
      {"Random", sim::Algorithm::kOfflineRandom, {}},
  };

  std::cout << "sensor farm: " << config.chargers << " chargers, " << config.tasks
            << " clustered tasks, " << trials << " random topologies\n\n";
  const sim::TrialResults results = sim::run_trials(config, variants, trials, 42);

  struct Row {
    std::string label;
    double mean;
    double stddev;
    double switches;
  };
  std::vector<Row> rows;
  for (const auto& [label, metrics] : results) {
    std::vector<double> utilities;
    double switches = 0.0;
    for (const sim::RunMetrics& m : metrics) {
      utilities.push_back(m.normalized_utility);
      switches += m.switches;
    }
    rows.push_back({label, util::mean(utilities), util::stddev(utilities),
                    switches / static_cast<double>(metrics.size())});
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.mean > b.mean; });

  util::Table table({"rank", "scheduler", "mean utility", "stddev", "avg switches"});
  int rank = 1;
  for (const Row& row : rows) {
    table.add_row({std::to_string(rank++), row.label, util::format_fixed(row.mean, 4),
                   util::format_fixed(row.stddev, 4),
                   util::format_fixed(row.switches, 1)});
  }
  table.print(std::cout);
  std::cout << "\n(the HASTE variants should lead; online trails its offline "
               "counterpart by the rescheduling delay)\n";
  return 0;
}
