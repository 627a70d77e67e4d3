// Tests for dist/node.hpp — the per-charger negotiation state machine, with
// emphasis on its marginal cache: the plan-column term cache (including the
// (task, delta) overflow columns of deadline-discounted rows) must answer
// exactly like a from-scratch MarginalEngine at every observable point,
// including after remote UPDATEs dirty its columns.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "core/dominant_sets.hpp"
#include "dist/node.hpp"
#include "model/deadline.hpp"
#include "test_helpers.hpp"

namespace haste {
namespace {

using testing_helpers::random_network;
using testing_helpers::ShadowCharger;

std::vector<model::TaskIndex> all_tasks(const model::Network& net) {
  std::vector<model::TaskIndex> tasks(static_cast<std::size_t>(net.task_count()));
  for (model::TaskIndex j = 0; j < net.task_count(); ++j) {
    tasks[static_cast<std::size_t>(j)] = j;
  }
  return tasks;
}

/// `base` with a deadline on every task halfway through its window under a
/// linear decay, so late-slot rows carry discounted energies and the node
/// must route them through overflow columns.
model::Network with_linear_deadlines(const model::Network& base) {
  std::vector<model::Task> tasks = base.tasks();
  for (model::Task& task : tasks) {
    task.deadline_slot = task.release_slot + (task.end_slot - task.release_slot) / 2;
  }
  return model::Network(base.chargers(), std::move(tasks), base.power_model(),
                        base.time(), nullptr,
                        model::DeadlinePolicy{model::DeadlineDecay::kLinear, 2.0});
}

/// Energy already harvested before a re-plan: a random fraction of each
/// task's requirement, with every third task already saturated.
std::vector<double> harvested_energy(const model::Network& net, util::Rng& rng) {
  std::vector<double> energy;
  for (const model::Task& task : net.tasks()) {
    energy.push_back(energy.size() % 3 == 0
                         ? task.required_energy * 1.5
                         : rng.uniform(0.0, task.required_energy));
  }
  return energy;
}

// Drives a node and its shadow oracle through identical stage sequences,
// interleaving remote commits from a second charger on the same shared
// engine, and checks every announced marginal, every committed policy, the
// final schedule, and the expected value agree bit for bit — on a
// deadline-free network and on a linear-deadline one whose tardy rows live in
// overflow columns, each from zero energy and from a re-plan's nonzero
// harvested energy (which seeds the node's initial column terms).
TEST(ChargerNodeModes, TwinNodesAgreeAcrossRemoteCommits) {
  for (const bool deadlines : {false, true}) {
    for (const bool harvested : {false, true}) {
      for (const std::uint64_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed << " deadlines " << deadlines
                                          << " harvested " << harvested);
        util::Rng rng(seed);
        const model::Network base = random_network(rng, 3, 10, 3);
        const model::Network net = deadlines ? with_linear_deadlines(base) : base;
        const std::vector<double> initial =
            harvested ? harvested_energy(net, rng) : std::vector<double>{};
        const int colors = 2;
        const core::MarginalEngine::Config config{colors, 8, seed};
        const std::vector<model::TaskIndex> known = all_tasks(net);
        core::MarginalEngine engine(net, config, initial);
        dist::ChargerNode node(net, 0, engine, known);
        ShadowCharger shadow(net, 0, config, known, initial);
        dist::ChargerNode remote(net, 1, engine, known);

        model::Schedule expected(net.charger_count(), net.horizon());
        for (model::SlotIndex k = 0; k < net.horizon(); ++k) {
          const int final_color = core::MarginalEngine::final_color(seed, 0, k, colors);
          for (int c = 0; c < colors; ++c) {
            const bool participates = node.begin_stage(k, c);
            ASSERT_EQ(participates, !shadow.policies(k).empty()) << "slot " << k;
            const bool remote_works = remote.begin_stage(k, c);

            if (participates) {
              double marginal = 0.0;
              const bool positive = shadow.best(k, c, marginal).has_value();
              const auto value = node.make_value_message();
              ASSERT_TRUE(value.has_value());
              EXPECT_EQ(value->marginal, positive ? marginal : 0.0)
                  << "slot " << k << " color " << c;
            }

            // A neighbor commits to the shared engine and the shadow folds
            // its UPDATE; the node must re-price only the dirtied columns yet
            // answer exactly like the from-scratch shadow.
            if (remote_works) {
              if (const auto update = remote.force_commit()) {
                node.receive(*update);
                shadow.apply_remote(*update);
              }
            }

            if (participates) {
              double marginal = 0.0;
              const std::optional<core::Policy> best = shadow.best(k, c, marginal);
              const auto commit = node.force_commit();
              ASSERT_EQ(commit.has_value(), best.has_value()) << "slot " << k << " color " << c;
              if (commit) {
                EXPECT_EQ(commit->marginal, marginal);
                EXPECT_EQ(commit->policy.orientation, best->orientation);
                EXPECT_EQ(commit->policy.tasks, best->tasks);
                EXPECT_EQ(commit->policy.slot_energy, best->slot_energy);
                shadow.commit(k, c, *best);
                if (c == final_color) expected.assign(0, k, best->orientation);
              }
            }
          }
        }

        model::Schedule schedule(net.charger_count(), net.horizon());
        node.write_schedule(schedule, 0);
        for (model::SlotIndex k = 0; k < net.horizon(); ++k) {
          EXPECT_EQ(schedule.assignment(0, k), expected.assignment(0, k)) << "slot " << k;
        }
        EXPECT_EQ(engine.expected_value(), shadow.expected_value());
      }
    }
  }
}

// A node with no coverable work must stay passive.
TEST(ChargerNodeModes, NodeWithoutWorkStaysPassive) {
  util::Rng rng(4);
  const model::Network net = random_network(rng, 2, 6, 3);
  core::MarginalEngine engine(net, {2, 4, 4});
  dist::ChargerNode node(net, 0, engine, {});
  EXPECT_FALSE(node.has_work());
  EXPECT_FALSE(node.begin_stage(0, 0));
  EXPECT_TRUE(node.decided());
  EXPECT_EQ(node.make_value_message(), std::nullopt);
}

}  // namespace
}  // namespace haste
