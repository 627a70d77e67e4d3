// Differential tests for the TabularGreedy evaluation paths. Each scheduler
// has one production path, checked here against its test oracle:
//   - offline (Algorithm 2): schedule_offline_over, which prices partitions
//     through the batched partition_marginals kernels, against the scalar
//     reference_tabular_greedy of test_helpers.hpp — same schedules,
//     bitwise-equal planned utilities, same effort counters — across panel
//     shapes, tie-break settings, warm starts, one paper-scale instance and
//     one deadline-tight instance;
//   - the online negotiation: whole runs of the column-cached nodes against
//     reference_online, the cache-free replay of the driver.
// The suite and test names predate the removal of the per-scheduler
// incremental/rebuild mode switch and are kept so results stay comparable
// across history.
#include <gtest/gtest.h>

#include <vector>

#include "core/offline.hpp"
#include "dist/online.hpp"
#include "sim/scenario.hpp"
#include "test_helpers.hpp"

namespace haste {
namespace {

using testing_helpers::expect_identical_schedules;
using testing_helpers::expect_matches_reference_online;
using testing_helpers::random_network;
using testing_helpers::reference_online;
using testing_helpers::reference_tabular_greedy;

void expect_identical_results(const core::OfflineResult& reference,
                              const core::OfflineResult& production) {
  EXPECT_EQ(reference.planned_relaxed_utility, production.planned_relaxed_utility);
  EXPECT_EQ(reference.row_evaluations, production.row_evaluations);
  EXPECT_EQ(reference.marginal_evaluations, production.marginal_evaluations);
  expect_identical_schedules(reference.schedule, production.schedule);
}

class TabularModeDifferential : public ::testing::TestWithParam<std::uint64_t> {};

// The core property: for every panel shape and either tie-break setting, the
// production scheduler walks the exact same greedy trajectory as the scalar
// per-policy reference.
TEST_P(TabularModeDifferential, OfflineIncrementalMatchesRebuild) {
  util::Rng rng(GetParam());
  const model::Network net = random_network(rng, 6, 14, 4);
  const auto partitions = core::build_partitions(net);
  for (const int colors : {1, 2, 4, 8}) {
    for (const int samples : {1, 16}) {
      for (const bool tiebreak : {false, true}) {
        SCOPED_TRACE(::testing::Message()
                     << "C=" << colors << " S=" << samples << " tiebreak=" << tiebreak);
        core::OfflineConfig config;
        config.colors = colors;
        config.samples = samples;
        config.seed = GetParam();
        config.switch_avoiding_tiebreak = tiebreak;
        expect_identical_results(reference_tabular_greedy(net, partitions, config),
                                 core::schedule_offline(net, config));
      }
    }
  }
}

// Warm starts (online re-planning) price every column on top of nonzero
// initial energies.
TEST_P(TabularModeDifferential, OfflineWithInitialEnergyMatches) {
  util::Rng rng(GetParam() + 1000);
  const model::Network net = random_network(rng, 5, 12, 4);
  const auto partitions = core::build_partitions(net);
  std::vector<double> initial(static_cast<std::size_t>(net.task_count()));
  for (double& e : initial) e = rng.uniform(0.0, 2000.0);
  core::OfflineConfig config;
  config.seed = GetParam();
  expect_identical_results(reference_tabular_greedy(net, partitions, config, initial),
                           core::schedule_offline_over(net, partitions, config, initial));
}

INSTANTIATE_TEST_SUITE_P(Seeds, TabularModeDifferential,
                         ::testing::Range<std::uint64_t>(1, 21));

// Paper scale (50 chargers / 200 tasks, the paper's C = 4 / S = 16 panel):
// the instance size of fig07 and of the offline end-to-end workload.
TEST(TabularReference, PaperScaleMatchesReference) {
  sim::ScenarioConfig scenario = sim::ScenarioConfig::paper_default();
  scenario.chargers = 50;
  scenario.tasks = 200;
  util::Rng rng(7);
  const model::Network net = sim::generate_scenario(scenario, rng);
  const auto partitions = core::build_partitions(net);
  const core::OfflineConfig config;  // C = 4, S = 16
  ASSERT_EQ(config.colors, 4);
  ASSERT_EQ(config.samples, 16);
  expect_identical_results(reference_tabular_greedy(net, partitions, config),
                           core::schedule_offline_over(net, partitions, config, {}));
}

// Deadline-tight: every task carries a deadline inside its window under a
// harsh linear decay, so discounted rows, dropped zero-factor rows and the
// column dedup of tardy rows all run.
TEST(TabularReference, TightDeadlinesMatchReference) {
  sim::ScenarioConfig scenario = sim::ScenarioConfig::paper_default();
  scenario.chargers = 25;
  scenario.tasks = 100;
  scenario.deadline_decay = "linear";
  scenario.deadline_beta = 4.0;
  scenario.deadline_fraction = 1.0;
  util::Rng rng(7);
  const model::Network net = sim::generate_scenario(scenario, rng);
  ASSERT_TRUE(net.has_deadlines());
  const auto partitions = core::build_partitions(net);
  const core::OfflineConfig config;
  expect_identical_results(reference_tabular_greedy(net, partitions, config),
                           core::schedule_offline_over(net, partitions, config, {}));
}

class OnlineModeDifferential : public ::testing::TestWithParam<std::uint64_t> {};

// The distributed negotiation (elections and the sequential token protocol),
// with and without a charger failure: the column-cached nodes, whose remote
// UPDATEs re-price only the plan columns whose utilities moved, reproduce the
// cache-free replay of the online driver — schedule, utility and the whole
// bus ledger.
TEST_P(OnlineModeDifferential, NegotiationIncrementalMatchesRebuild) {
  util::Rng rng(GetParam());
  const model::Network net = random_network(rng, 5, 12, 4);
  for (const dist::OnlineStrategy strategy :
       {dist::OnlineStrategy::kHaste, dist::OnlineStrategy::kHasteSequential}) {
    for (const bool failure : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "sequential "
                                        << (strategy == dist::OnlineStrategy::kHasteSequential)
                                        << " failure " << failure);
      dist::OnlineConfig config;
      config.strategy = strategy;
      config.colors = 2;
      config.samples = 8;
      config.seed = GetParam();
      if (failure) {
        config.failures = {{static_cast<model::ChargerIndex>(GetParam() % 5), 2}};
      }
      expect_matches_reference_online(dist::run_online(net, config),
                                      reference_online(net, config));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OnlineModeDifferential,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace haste
