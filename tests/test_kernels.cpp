// Differential tests for the data-oriented kernel layer (core/kernels) and
// its integration into the marginal engine and the schedulers: every batched
// path must be bit-identical to a scalar reference — per weighted utility,
// per row term, per marginal (against the ScalarEngine replay of
// test_helpers.hpp), per coverage entry (against a per-pair
// PowerModel::potential_power sweep), and for whole schedules (against the
// reference schedulers of test_helpers.hpp). The "OnAndOff" names predate
// the removal of the runtime kernel toggle and are kept so results stay
// comparable across history.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "core/global_greedy.hpp"
#include "core/kernels.hpp"
#include "core/offline.hpp"
#include "geom/angle.hpp"
#include "model/network.hpp"
#include "model/utility.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace haste {
namespace {

using testing_helpers::expect_identical_schedules;
using testing_helpers::random_network;
using testing_helpers::ScalarEngine;

/// A concave bounded shape the kernel layer cannot identify: it must report
/// kCustom and every batched path must fall back to value() — still batched,
/// still bit-identical.
class PowShape final : public model::UtilityShape {
 public:
  double value(double r) const override {
    if (r <= 0.0) return 0.0;
    return std::min(1.0, std::pow(r, 0.7));
  }
  std::string name() const override { return "pow"; }
};

/// Rebuilds `net` with a different utility shape (same chargers, tasks,
/// power model, and time grid).
model::Network with_shape(const model::Network& net,
                          std::shared_ptr<const model::UtilityShape> shape) {
  return model::Network(std::vector<model::Charger>(net.chargers().begin(),
                                                    net.chargers().end()),
                        std::vector<model::Task>(net.tasks().begin(), net.tasks().end()),
                        net.power_model(), net.time(), std::move(shape));
}

std::vector<std::shared_ptr<const model::UtilityShape>> all_shapes() {
  return {std::make_shared<model::LinearBoundedShape>(),
          std::make_shared<model::SqrtBoundedShape>(),
          std::make_shared<model::LogBoundedShape>(),
          std::make_shared<PowShape>()};
}

TEST(UtilityTable, WeightedUtilityBitIdenticalAcrossShapes) {
  util::Rng rng(31);
  const model::Network base = random_network(rng, 4, 12);
  for (const auto& shape : all_shapes()) {
    const model::Network net = with_shape(base, shape);
    const auto table = core::kernels::UtilityTable::from(net);
    EXPECT_EQ(table.fast(), shape->kind() != model::UtilityShapeKind::kCustom);
    for (model::TaskIndex j = 0; j < net.task_count(); ++j) {
      const double required =
          net.tasks()[static_cast<std::size_t>(j)].required_energy;
      // Sweep the interesting regimes: negative (depleted), zero, interior,
      // exactly saturated, oversaturated.
      for (const double x : {-3.0, 0.0, 0.25 * required, 0.999 * required, required,
                             std::nextafter(required, 2.0 * required), 10.0 * required}) {
        EXPECT_EQ(table.weighted_utility(j, x), net.weighted_task_utility(j, x))
            << shape->name() << " task " << j << " x " << x;
      }
      for (int i = 0; i < 50; ++i) {
        const double x = rng.uniform(-required, 2.0 * required);
        EXPECT_EQ(table.weighted_utility(j, x), net.weighted_task_utility(j, x))
            << shape->name() << " task " << j << " x " << x;
      }
    }
  }
}

TEST(Kernels, RowTermsMatchScalarFold) {
  util::Rng rng(37);
  const model::Network base = random_network(rng, 4, 16);
  for (const auto& shape : all_shapes()) {
    const model::Network net = with_shape(base, shape);
    const auto table = core::kernels::UtilityTable::from(net);
    const auto m = static_cast<std::size_t>(net.task_count());
    // A randomized energy state and a row batch longer than the kernel's
    // internal block (so the blockwise path runs more than one block),
    // including repeated tasks like real policy rows have.
    std::vector<double> energy(m);
    for (auto& e : energy) e = rng.uniform(0.0, 5000.0);
    const std::size_t rows = 300;
    std::vector<model::TaskIndex> tasks(rows);
    std::vector<double> delta(rows);
    for (std::size_t t = 0; t < rows; ++t) {
      tasks[t] = static_cast<model::TaskIndex>(rng.uniform_int(0, static_cast<int>(m) - 1));
      delta[t] = rng.uniform(0.0, 2000.0);
    }
    const core::kernels::RowView view{tasks, delta, {}, {}};
    std::vector<double> out(rows, -1.0);
    core::kernels::row_terms(table, energy.data(), view, out.data());
    double expected_sum = 0.0;
    for (std::size_t t = 0; t < rows; ++t) {
      const auto j = static_cast<std::size_t>(tasks[t]);
      const double before = net.weighted_task_utility(tasks[t], energy[j]);
      const double after = net.weighted_task_utility(tasks[t], energy[j] + delta[t]);
      EXPECT_EQ(out[t], after - before) << shape->name() << " row " << t;
      expected_sum += after - before;
    }
    EXPECT_EQ(core::kernels::row_term_sum(table, energy.data(), view), expected_sum)
        << shape->name();
  }
}

TEST(Kernels, RowViewWeightColumnsAreEquivalent) {
  // The pre-gathered weight/required columns must change nothing but the
  // gather count.
  util::Rng rng(41);
  const model::Network net = random_network(rng, 3, 10);
  const auto table = core::kernels::UtilityTable::from(net);
  const auto m = static_cast<std::size_t>(net.task_count());
  std::vector<double> energy(m);
  for (auto& e : energy) e = rng.uniform(0.0, 4000.0);
  std::vector<model::TaskIndex> tasks;
  std::vector<double> delta;
  std::vector<double> weight;
  std::vector<double> required;
  for (int t = 0; t < 150; ++t) {
    const auto j = static_cast<model::TaskIndex>(rng.uniform_int(0, static_cast<int>(m) - 1));
    tasks.push_back(j);
    delta.push_back(rng.uniform(0.0, 3000.0));
    weight.push_back(net.tasks()[static_cast<std::size_t>(j)].weight);
    required.push_back(net.tasks()[static_cast<std::size_t>(j)].required_energy);
  }
  const core::kernels::RowView gathered{tasks, delta, {}, {}};
  const core::kernels::RowView columns{tasks, delta, weight, required};
  std::vector<double> out_gathered(tasks.size());
  std::vector<double> out_columns(tasks.size());
  core::kernels::row_terms(table, energy.data(), gathered, out_gathered.data());
  core::kernels::row_terms(table, energy.data(), columns, out_columns.data());
  EXPECT_EQ(out_gathered, out_columns);
  EXPECT_EQ(core::kernels::row_term_sum(table, energy.data(), gathered),
            core::kernels::row_term_sum(table, energy.data(), columns));
}

TEST(Kernels, EngineMarginalsBitIdenticalOnAndOff) {
  util::Rng rng(43);
  for (const auto& shape : all_shapes()) {
    const model::Network net = with_shape(random_network(rng, 5, 20, 5), shape);
    const auto partitions = core::build_partitions(net);
    ASSERT_FALSE(partitions.empty());
    const core::MarginalEngine::Config config{3, 6, 99};
    ScalarEngine scalar(net, config);
    core::MarginalEngine engine(net, config);
    // Interleave marginals and commits; every observable must stay bitwise
    // equal between the engine and its scalar replay.
    util::Rng walk(7);
    for (int step = 0; step < 60; ++step) {
      const auto p = static_cast<std::size_t>(
          walk.uniform_int(0, static_cast<int>(partitions.size()) - 1));
      const core::PolicyPartition& partition = partitions[p];
      const auto q = static_cast<std::size_t>(
          walk.uniform_int(0, static_cast<int>(partition.policies.size()) - 1));
      const int c = walk.uniform_int(0, config.colors - 1);
      ASSERT_EQ(scalar.marginal(partition.charger, partition.slot,
                                partition.policy_tasks(q), partition.policy_energy(q), c),
                engine.marginal(partition.charger, partition.slot,
                                partition.policy_rows(q), c))
          << shape->name() << " step " << step;
      if (step % 3 == 0) {
        // The realized gain of this commit is the marginal compared above.
        scalar.commit(partition.charger, partition.slot, partition.policy_tasks(q),
                      partition.policy_energy(q), c);
        engine.commit(partition.charger, partition.slot, partition.policy_tasks(q),
                      partition.policy_energy(q), c);
        // Version counters must agree too: the utility-filtered bump decides
        // cache certification in the negotiation nodes.
        for (int s = 0; s < config.samples; ++s) {
          for (model::TaskIndex j = 0; j < net.task_count(); ++j) {
            ASSERT_EQ(scalar.sample_version(s, j), engine.sample_version(s, j));
          }
        }
      }
      ASSERT_EQ(scalar.expected_value(), engine.expected_value());
    }
    EXPECT_EQ(scalar.row_terms, engine.stats().row_terms) << shape->name();
    EXPECT_EQ(scalar.marginals, engine.stats().marginals) << shape->name();
  }
}

TEST(Kernels, BatchedRowTermsMatchScalarRowTerm) {
  // The batched kernel over a replayed per-sample energy state must equal the
  // engine's own per-row oracle row_term on the same state.
  util::Rng rng(47);
  const model::Network net = random_network(rng, 4, 15);
  const auto partitions = core::build_partitions(net);
  ASSERT_FALSE(partitions.empty());
  const core::MarginalEngine::Config config{2, 4, 5};
  core::MarginalEngine engine(net, config);
  ScalarEngine replay(net, config);
  const auto table = core::kernels::UtilityTable::from(net);
  // Seed some state so energies differ per sample-color history.
  replay.commit(partitions[0].charger, partitions[0].slot, partitions[0].policy_tasks(0),
                partitions[0].policy_energy(0), 0);
  engine.commit(partitions[0].charger, partitions[0].slot, partitions[0].policy_tasks(0),
                partitions[0].policy_energy(0), 0);
  for (const auto& partition : partitions) {
    for (std::size_t q = 0; q < partition.policies.size(); ++q) {
      const auto rows = partition.policy_rows(q);
      for (int s = 0; s < engine.samples(); ++s) {
        std::vector<double> batched(rows.size());
        core::kernels::row_terms(table, replay.energy(s), rows, batched.data());
        for (std::size_t t = 0; t < rows.size(); ++t) {
          ASSERT_EQ(batched[t], engine.row_term(s, rows.tasks[t], rows.delta[t]))
              << "sample " << s << " row " << t;
        }
      }
    }
  }
}

TEST(Kernels, NetworkCoverageBitIdenticalOnAndOff) {
  // Narrow receiving sectors so the batched sector classification actually
  // carries the coverage decision.
  util::Rng rng(53);
  const model::Network net = random_network(rng, 8, 40, 4, geom::kPi / 3.0);
  for (model::ChargerIndex i = 0; i < net.charger_count(); ++i) {
    std::vector<model::TaskIndex> expected_cover;
    for (model::TaskIndex j = 0; j < net.task_count(); ++j) {
      const double p = net.power_model().potential_power(
          net.chargers()[static_cast<std::size_t>(i)].position,
          net.tasks()[static_cast<std::size_t>(j)]);
      if (p > 0.0) expected_cover.push_back(j);
      ASSERT_EQ(net.potential_power(i, j), p > 0.0 ? p : 0.0)
          << "charger " << i << " task " << j;
    }
    const auto cover = net.coverable_tasks(i);
    ASSERT_EQ(std::vector<model::TaskIndex>(cover.begin(), cover.end()), expected_cover)
        << "charger " << i;
  }
}

class KernelScheduleDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KernelScheduleDifferential, OfflineSchedulesBitIdenticalOnAndOff) {
  util::Rng rng(GetParam());
  const model::Network net = random_network(rng, 6, 24, 5);
  const auto partitions = core::build_partitions(net);
  core::OfflineConfig config;
  config.colors = 3;
  config.samples = 6;
  config.seed = GetParam();
  const core::OfflineResult reference =
      testing_helpers::reference_tabular_greedy(net, partitions, config);
  const core::OfflineResult production =
      core::schedule_offline_over(net, partitions, config, {});
  EXPECT_EQ(reference.planned_relaxed_utility, production.planned_relaxed_utility);
  // Same effort, not just the same answer: the batched kernel path must
  // count exactly the rows and oracle calls the scalar per-policy loop pays.
  EXPECT_EQ(reference.row_evaluations, production.row_evaluations);
  EXPECT_EQ(reference.marginal_evaluations, production.marginal_evaluations);
  expect_identical_schedules(reference.schedule, production.schedule);
}

TEST_P(KernelScheduleDifferential, GlobalGreedySchedulesBitIdenticalOnAndOff) {
  util::Rng rng(GetParam() + 1000);
  const model::Network net = random_network(rng, 6, 24, 5);
  const auto partitions = core::build_partitions(net);
  const core::GlobalGreedyResult reference = testing_helpers::reference_global_greedy(
      net, partitions, testing_helpers::GreedyOracle::kLazy);
  const core::GlobalGreedyResult production =
      core::schedule_global_greedy_over(net, partitions, {});
  EXPECT_EQ(reference.planned_relaxed_utility, production.planned_relaxed_utility);
  EXPECT_EQ(reference.evaluations, production.evaluations);
  expect_identical_schedules(reference.schedule, production.schedule);
  // The eager oracle may break floating-point ties differently but must
  // reach the same objective.
  EXPECT_EQ(testing_helpers::reference_global_greedy(net, partitions,
                                                     testing_helpers::GreedyOracle::kEager)
                .planned_relaxed_utility,
            production.planned_relaxed_utility);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelScheduleDifferential,
                         ::testing::Values(1u, 2u, 3u, 17u, 101u));

}  // namespace
}  // namespace haste
