// Differential tests for the TabularGreedy evaluation paths. Each scheduler
// has one production path, checked here against its test oracle:
//   - offline (Algorithm 2): the batched kernel path of partition_marginals
//     against the scalar per-policy marginal() loop it falls back to with
//     the kernels off — same schedules, same planned utilities, same effort
//     counters — across panel shapes, tie-break settings and warm starts;
//   - the online negotiation: the nodes' column-cached pricing with the
//     kernel table and persistent nodes against the scalar engine with a
//     fresh fleet per re-plan.
// The suite and test names predate the removal of the per-scheduler
// incremental/rebuild mode switch and are kept so results stay comparable
// across history. The suite toggles the kernels itself, so it runs the same
// under any HASTE_KERNELS setting.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/offline.hpp"
#include "dist/online.hpp"
#include "test_helpers.hpp"
#include "util/simd.hpp"

namespace haste {
namespace {

using testing_helpers::random_network;

void expect_identical_schedules(const model::Schedule& a, const model::Schedule& b) {
  ASSERT_EQ(a.charger_count(), b.charger_count());
  ASSERT_EQ(a.horizon(), b.horizon());
  for (model::ChargerIndex i = 0; i < a.charger_count(); ++i) {
    for (model::SlotIndex k = 0; k < a.horizon(); ++k) {
      EXPECT_EQ(a.assignment(i, k), b.assignment(i, k))
          << "charger " << i << " slot " << k;
    }
  }
}

void expect_identical_results(const core::OfflineResult& scalar,
                              const core::OfflineResult& kernel) {
  EXPECT_EQ(scalar.planned_relaxed_utility, kernel.planned_relaxed_utility);
  EXPECT_EQ(scalar.row_evaluations, kernel.row_evaluations);
  EXPECT_EQ(scalar.marginal_evaluations, kernel.marginal_evaluations);
  expect_identical_schedules(scalar.schedule, kernel.schedule);
}

/// Runs `solve` once with the kernel path off (the scalar oracle) and once
/// with it on.
template <typename Solve>
std::pair<core::OfflineResult, core::OfflineResult> scalar_and_kernel(Solve solve) {
  core::OfflineResult scalar;
  {
    util::ScopedKernelToggle off(false);
    scalar = solve();
  }
  util::ScopedKernelToggle on(true);
  return {std::move(scalar), solve()};
}

class TabularModeDifferential : public ::testing::TestWithParam<std::uint64_t> {};

// The core property: for every panel shape and either tie-break setting, the
// batched kernel path walks the exact same greedy trajectory as the scalar
// per-policy loop.
TEST_P(TabularModeDifferential, OfflineIncrementalMatchesRebuild) {
  if (!util::kernels_compiled()) GTEST_SKIP() << "kernels compiled out";
  util::Rng rng(GetParam());
  const model::Network net = random_network(rng, 6, 14, 4);
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
        const auto [scalar, kernel] =
            scalar_and_kernel([&] { return core::schedule_offline(net, config); });
        expect_identical_results(scalar, kernel);
      }
    }
  }
}

// Warm starts (online re-planning) price every column on top of nonzero
// initial energies.
TEST_P(TabularModeDifferential, OfflineWithInitialEnergyMatches) {
  if (!util::kernels_compiled()) GTEST_SKIP() << "kernels compiled out";
  util::Rng rng(GetParam() + 1000);
  const model::Network net = random_network(rng, 5, 12, 4);
  const auto partitions = core::build_partitions(net);
  std::vector<double> initial(static_cast<std::size_t>(net.task_count()));
  for (double& e : initial) e = rng.uniform(0.0, 2000.0);
  core::OfflineConfig config;
  config.seed = GetParam();
  const auto [scalar, kernel] = scalar_and_kernel(
      [&] { return core::schedule_offline_over(net, partitions, config, initial); });
  expect_identical_results(scalar, kernel);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TabularModeDifferential,
                         ::testing::Range<std::uint64_t>(1, 21));

class OnlineModeDifferential : public ::testing::TestWithParam<std::uint64_t> {};

// The distributed negotiation (elections and the sequential token protocol):
// remote UPDATEs dirty exactly the plan columns whose utilities moved, so the
// column-cached nodes on the kernel table with persistent caches reproduce a
// fresh scalar fleet's marginals, elections and messages.
TEST_P(OnlineModeDifferential, NegotiationIncrementalMatchesRebuild) {
  util::Rng rng(GetParam());
  const model::Network net = random_network(rng, 5, 12, 4);
  for (const dist::OnlineStrategy strategy :
       {dist::OnlineStrategy::kHaste, dist::OnlineStrategy::kHasteSequential}) {
    dist::OnlineConfig reference;
    reference.strategy = strategy;
    reference.colors = 2;
    reference.samples = 8;
    reference.seed = GetParam();
    reference.reuse_nodes = false;
    dist::OnlineConfig production = reference;
    production.reuse_nodes = true;
    dist::OnlineResult a;
    {
      util::ScopedKernelToggle off(false);
      a = dist::run_online(net, reference);
    }
    util::ScopedKernelToggle on(true);
    const dist::OnlineResult b = dist::run_online(net, production);
    EXPECT_EQ(a.evaluation.weighted_utility, b.evaluation.weighted_utility);
    EXPECT_EQ(a.messages, b.messages);
    EXPECT_EQ(a.rounds, b.rounds);
    expect_identical_schedules(a.schedule, b.schedule);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OnlineModeDifferential,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace haste
