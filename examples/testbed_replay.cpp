// Replays the paper's field experiments (Section 8) on the simulated
// Powercast testbed: both topologies, offline and online, printing the
// per-task utilities that Figs. 21/22/24/25 plot.
//
//   $ ./testbed_replay [--topology 1|2]
#include <iostream>

#include "core/evaluate.hpp"
#include "core/offline.hpp"
#include "dist/online.hpp"
#include "testbed/topologies.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace haste;

void replay(const model::Network& net, const std::string& name) {
  std::cout << "--- " << name << ": " << net.charger_count() << " transmitters, "
            << net.task_count() << " tasks, horizon " << net.horizon()
            << " min ---\n";

  core::OfflineConfig offline_config;
  offline_config.colors = 4;
  offline_config.samples = 16;
  const core::OfflineResult offline = core::schedule_offline(net, offline_config);
  const core::EvaluationResult offline_eval =
      core::evaluate_schedule(net, offline.schedule);

  dist::OnlineConfig online_config;
  online_config.colors = 4;
  online_config.samples = 8;
  const dist::OnlineResult online = dist::run_online(net, online_config);

  util::Table table({"task", "offline utility", "online utility"});
  for (std::size_t j = 0; j < offline_eval.task_utility.size(); ++j) {
    table.add_row({std::to_string(j + 1),
                   util::format_fixed(offline_eval.task_utility[j], 3),
                   util::format_fixed(online.evaluation.task_utility[j], 3)});
  }
  table.print(std::cout);
  std::cout << "overall: offline " << util::format_fixed(offline_eval.weighted_utility, 4)
            << ", online " << util::format_fixed(online.evaluation.weighted_utility, 4)
            << " (" << online.messages << " control messages)\n\n";
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags = util::Flags::parse(argc, argv);
  static constexpr std::string_view kFlags[] = {"topology"};
  if (flags.reject_unknown("testbed_replay", kFlags)) return 2;
  const std::int64_t which = flags.get_int("topology", 0);
  if (which == 0 || which == 1) {
    replay(testbed::topology1(), "Topology 1 (Fig. 20)");
  }
  if (which == 0 || which == 2) {
    replay(testbed::topology2(), "Topology 2 (Fig. 23)");
  }
  return 0;
}
