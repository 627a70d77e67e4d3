// Shared helpers for building small random HASTE instances in tests, and
// the scalar test oracles the production schedulers are checked against:
// ScalarEngine (a replay of MarginalEngine that prices every row through
// Network::weighted_task_utility), reference_tabular_greedy (Algorithm 2
// over that replay) and reference_global_greedy (global greedy over that
// replay, eager or lazy).
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <queue>
#include <span>
#include <utility>
#include <vector>

#include "core/global_greedy.hpp"
#include "core/objective.hpp"
#include "core/offline.hpp"
#include "geom/angle.hpp"
#include "model/network.hpp"
#include "model/schedule.hpp"
#include "util/rng.hpp"

namespace haste::testing_helpers {

/// A compact power model for test instances: short range, 60-degree charging
/// sector, omnidirectional devices unless narrowed.
inline model::PowerModel tiny_power(double receiving_angle = geom::kTwoPi) {
  model::PowerModel power;
  power.alpha = 100.0;
  power.beta = 1.0;
  power.radius = 12.0;
  power.charging_angle = geom::kPi / 3;
  power.receiving_angle = receiving_angle;
  return power;
}

/// A random instance with `n` chargers and `m` tasks in a 10x10 field,
/// horizon <= `max_slots`, energies scaled so that tasks need a handful of
/// slot-deliveries to saturate (keeps utilities strictly inside (0, 1), the
/// interesting regime for submodularity).
inline model::Network random_network(util::Rng& rng, int n, int m, int max_slots = 4,
                                     double receiving_angle = geom::kTwoPi,
                                     model::TimeGrid time = model::TimeGrid{}) {
  std::vector<model::Charger> chargers;
  for (int i = 0; i < n; ++i) {
    chargers.push_back(model::Charger{{rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)}});
  }
  std::vector<model::Task> tasks;
  for (int j = 0; j < m; ++j) {
    model::Task task;
    task.position = {rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)};
    task.orientation = rng.uniform(0.0, geom::kTwoPi);
    task.release_slot = static_cast<model::SlotIndex>(rng.uniform_int(0, max_slots - 1));
    task.end_slot = task.release_slot +
                    static_cast<model::SlotIndex>(rng.uniform_int(1, max_slots));
    // ~1-4 close-range slot deliveries to saturate (alpha=100, beta=1,
    // T_s=60s: one adjacent-delivery is ~60 * 100 / (d+1)^2 J).
    task.required_energy = rng.uniform(500.0, 4000.0);
    task.weight = 1.0 / static_cast<double>(m);
    tasks.push_back(task);
  }
  return model::Network(std::move(chargers), std::move(tasks),
                        tiny_power(receiving_angle), time);
}

/// Scalar replay of core::MarginalEngine: per-sample task energies, every
/// weighted utility through Network::weighted_task_utility, rows folded one
/// at a time in row order. Same config normalization, panel colors, version
/// rule and effort counters as the engine, so every observable of the
/// engine must match it bit for bit.
class ScalarEngine {
 public:
  ScalarEngine(const model::Network& net, core::MarginalEngine::Config config,
               std::span<const double> initial_energy = {})
      : net_(&net), config_(config), m_(static_cast<std::size_t>(net.task_count())) {
    if (config_.colors < 1) config_.colors = 1;
    if (config_.samples < 1) config_.samples = 1;
    if (config_.colors == 1) config_.samples = 1;
    energy_.assign(static_cast<std::size_t>(config_.samples) * m_, 0.0);
    version_.assign(energy_.size(), 0);
    if (!initial_energy.empty()) {
      for (int s = 0; s < config_.samples; ++s) {
        std::copy(initial_energy.begin(), initial_energy.end(),
                  energy_.begin() + static_cast<std::ptrdiff_t>(s * m_));
      }
    }
  }

  int colors() const { return config_.colors; }
  int samples() const { return config_.samples; }

  /// Task energies of panel sample `s` (m entries).
  const double* energy(int s) const { return energy_.data() + sample_offset(s); }

  std::uint64_t sample_version(int s, model::TaskIndex j) const {
    return version_[sample_offset(s) + static_cast<std::size_t>(j)];
  }

  double marginal(model::ChargerIndex i, model::SlotIndex k,
                  std::span<const model::TaskIndex> tasks,
                  std::span<const double> delta, int c) {
    ++marginals;
    double total = 0.0;
    for (int s = 0; s < config_.samples; ++s) {
      if (!matches(s, i, k, c)) continue;
      total += gain_in_sample(s, tasks, delta);
    }
    return total / static_cast<double>(config_.samples);
  }

  double commit(model::ChargerIndex i, model::SlotIndex k,
                std::span<const model::TaskIndex> tasks, std::span<const double> delta,
                int c) {
    double total = 0.0;
    for (int s = 0; s < config_.samples; ++s) {
      if (!matches(s, i, k, c)) continue;
      total += gain_in_sample(s, tasks, delta);
      for (std::size_t t = 0; t < tasks.size(); ++t) {
        const std::size_t idx = sample_offset(s) + static_cast<std::size_t>(tasks[t]);
        const double before = energy_[idx];
        const double after = before + delta[t];
        if (net_->weighted_task_utility(tasks[t], after) !=
            net_->weighted_task_utility(tasks[t], before)) {
          ++version_[idx];
        }
        energy_[idx] = after;
      }
    }
    return total / static_cast<double>(config_.samples);
  }

  double expected_value() const {
    double total = 0.0;
    for (int s = 0; s < config_.samples; ++s) {
      for (std::size_t j = 0; j < m_; ++j) {
        total += net_->weighted_task_utility(static_cast<model::TaskIndex>(j),
                                             energy_[sample_offset(s) + j]);
      }
    }
    return total / static_cast<double>(config_.samples);
  }

  std::uint64_t row_terms = 0;  ///< per-(row, sample) evaluations, as Stats
  std::uint64_t marginals = 0;  ///< marginal() calls, as Stats

 private:
  std::size_t sample_offset(int s) const { return static_cast<std::size_t>(s) * m_; }

  bool matches(int s, model::ChargerIndex i, model::SlotIndex k, int c) const {
    return core::MarginalEngine::panel_color(config_.seed, s, i, k, config_.colors) == c;
  }

  double gain_in_sample(int s, std::span<const model::TaskIndex> tasks,
                        std::span<const double> delta) {
    row_terms += tasks.size();
    double gain = 0.0;
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      const double before = energy_[sample_offset(s) + static_cast<std::size_t>(tasks[t])];
      gain += net_->weighted_task_utility(tasks[t], before + delta[t]) -
              net_->weighted_task_utility(tasks[t], before);
    }
    return gain;
  }

  const model::Network* net_;
  core::MarginalEngine::Config config_;
  std::size_t m_;
  std::vector<double> energy_;          // [s * m + j]
  std::vector<std::uint64_t> version_;  // [s * m + j]
};

/// Scalar reference TabularGreedy (Algorithm 2): core::schedule_offline_over
/// re-derived over ScalarEngine, pricing every policy with its own marginal()
/// call. Same partition order, color stages, switch-avoiding tie-break and
/// final coloring, so the production scheduler must reproduce its schedule,
/// its planned utility bit for bit, and its row and marginal counts.
inline core::OfflineResult reference_tabular_greedy(
    const model::Network& net, const std::vector<core::PolicyPartition>& partitions,
    const core::OfflineConfig& config, std::span<const double> initial_energy = {}) {
  constexpr double kTieSlack = 1e-12;  // core/offline.cpp's tie window
  ScalarEngine engine(net, {config.colors, config.samples, config.seed}, initial_energy);
  const int colors = engine.colors();
  std::vector<std::vector<int>> selections(
      partitions.size(), std::vector<int>(static_cast<std::size_t>(colors), -1));
  std::vector<double> previous(
      static_cast<std::size_t>(net.charger_count()) * static_cast<std::size_t>(colors),
      std::numeric_limits<double>::quiet_NaN());
  for (int c = 0; c < colors; ++c) {
    for (std::size_t p = 0; p < partitions.size(); ++p) {
      const core::PolicyPartition& partition = partitions[p];
      double& prev = previous[static_cast<std::size_t>(partition.charger) *
                                  static_cast<std::size_t>(colors) +
                              static_cast<std::size_t>(c)];
      int best = -1;
      double best_marginal = 0.0;
      bool best_is_previous = false;
      for (std::size_t q = 0; q < partition.policies.size(); ++q) {
        const core::Policy& policy = partition.policies[q];
        const double m = engine.marginal(partition.charger, partition.slot, policy.tasks,
                                         policy.slot_energy, c);
        const bool is_previous =
            config.switch_avoiding_tiebreak && policy.orientation == prev;
        if (best < 0) {
          if (m > 0.0 || config.commit_zero_marginal) {
            best = static_cast<int>(q);
            best_marginal = m;
            best_is_previous = is_previous;
          }
          continue;
        }
        const bool strictly_better = m > best_marginal * (1.0 + kTieSlack) + kTieSlack;
        const bool tie_to_previous = is_previous && !best_is_previous &&
                                     m >= best_marginal * (1.0 - kTieSlack) - kTieSlack;
        if (strictly_better || tie_to_previous) {
          best = static_cast<int>(q);
          best_marginal = m;
          best_is_previous = is_previous;
        }
      }
      if (best < 0) continue;
      const core::Policy& chosen = partition.policies[static_cast<std::size_t>(best)];
      engine.commit(partition.charger, partition.slot, chosen.tasks, chosen.slot_energy, c);
      selections[p][static_cast<std::size_t>(c)] = best;
      prev = chosen.orientation;
    }
  }
  core::OfflineResult result;
  result.planned_relaxed_utility = engine.expected_value();
  result.schedule = model::Schedule(net.charger_count(), net.horizon());
  for (std::size_t p = 0; p < partitions.size(); ++p) {
    const core::PolicyPartition& partition = partitions[p];
    const int c = core::MarginalEngine::final_color(config.seed, partition.charger,
                                                    partition.slot, colors);
    const int chosen = selections[p][static_cast<std::size_t>(c)];
    if (chosen >= 0) {
      result.schedule.assign(
          partition.charger, partition.slot,
          partition.policies[static_cast<std::size_t>(chosen)].orientation);
    }
  }
  result.row_evaluations = engine.row_terms;
  result.marginal_evaluations = engine.marginals;
  return result;
}

/// Global greedy over ScalarEngine, the reference for the production lazy
/// greedy: same ground-set order, heap comparator (gain, then earliest task
/// deadline, then lower element id) and stopping rule.
///  * kEager re-evaluates every popped entry before it may commit; a fresh
///    gain within 1e-15 of its cached bound commits, so among
///    floating-point-tied maxima it may pick a different member than the
///    lazy heap order. Compare it by utility.
///  * kLazy re-evaluates only entries priced before the latest commit —
///    core::schedule_global_greedy_over's rule with scalar pricing, so
///    schedule, utility and evaluation count must all match it exactly.
enum class GreedyOracle { kEager, kLazy };

inline core::GlobalGreedyResult reference_global_greedy(
    const model::Network& net, const std::vector<core::PolicyPartition>& partitions,
    GreedyOracle oracle) {
  struct Entry {
    double bound;
    model::SlotIndex urgency;
    std::int32_t element;
    std::uint64_t stamp;  // commit count when `bound` was evaluated
    bool operator<(const Entry& other) const {
      if (bound != other.bound) return bound < other.bound;
      if (urgency != other.urgency) return urgency > other.urgency;
      return element > other.element;
    }
  };
  ScalarEngine engine(net, {1, 1, 1});
  std::vector<std::pair<std::size_t, std::size_t>> elements;  // (partition, policy)
  for (std::size_t p = 0; p < partitions.size(); ++p) {
    for (std::size_t q = 0; q < partitions[p].policies.size(); ++q) elements.emplace_back(p, q);
  }
  const auto policy_of = [&](std::int32_t e) -> const core::Policy& {
    const auto [p, q] = elements[static_cast<std::size_t>(e)];
    return partitions[p].policies[q];
  };
  const auto evaluate = [&](std::int32_t e) {
    const core::PolicyPartition& partition =
        partitions[elements[static_cast<std::size_t>(e)].first];
    const core::Policy& policy = policy_of(e);
    return engine.marginal(partition.charger, partition.slot, policy.tasks,
                           policy.slot_energy, 0);
  };
  core::GlobalGreedyResult result;
  result.schedule = model::Schedule(net.charger_count(), net.horizon());
  std::priority_queue<Entry> heap;
  for (std::size_t e = 0; e < elements.size(); ++e) {
    model::SlotIndex urgency = model::Task::kNoDeadline;
    if (net.has_deadlines()) {
      for (model::TaskIndex j : policy_of(static_cast<std::int32_t>(e)).tasks) {
        urgency = std::min(urgency, net.tasks()[static_cast<std::size_t>(j)].deadline_slot);
      }
    }
    heap.push(Entry{evaluate(static_cast<std::int32_t>(e)), urgency,
                    static_cast<std::int32_t>(e), 0});
  }
  result.evaluations = elements.size();
  std::vector<bool> filled(partitions.size(), false);
  std::uint64_t commits = 0;
  while (!heap.empty()) {
    Entry top = heap.top();
    heap.pop();
    const std::size_t p = elements[static_cast<std::size_t>(top.element)].first;
    if (filled[p]) continue;
    if (top.bound <= 0.0) break;
    if (oracle == GreedyOracle::kLazy) {
      if (top.stamp != commits) {
        ++result.evaluations;
        top.bound = evaluate(top.element);
        top.stamp = commits;
        if (top.bound > 0.0) heap.push(top);
        continue;
      }
    } else {
      ++result.evaluations;
      const double fresh = evaluate(top.element);
      if (fresh + 1e-15 < top.bound) {
        top.bound = fresh;
        if (fresh > 0.0) heap.push(top);
        continue;
      }
      if (fresh <= 0.0) continue;
    }
    const core::Policy& policy = policy_of(top.element);
    engine.commit(partitions[p].charger, partitions[p].slot, policy.tasks,
                  policy.slot_energy, 0);
    result.schedule.assign(partitions[p].charger, partitions[p].slot, policy.orientation);
    filled[p] = true;
    ++commits;
  }
  result.planned_relaxed_utility = engine.expected_value();
  return result;
}

/// Asserts two schedules assign every (charger, slot) identically.
inline void expect_identical_schedules(const model::Schedule& a, const model::Schedule& b) {
  ASSERT_EQ(a.charger_count(), b.charger_count());
  ASSERT_EQ(a.horizon(), b.horizon());
  for (model::ChargerIndex i = 0; i < a.charger_count(); ++i) {
    for (model::SlotIndex k = 0; k < a.horizon(); ++k) {
      EXPECT_EQ(a.assignment(i, k), b.assignment(i, k)) << "charger " << i << " slot " << k;
    }
  }
}

}  // namespace haste::testing_helpers
