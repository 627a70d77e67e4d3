// Shared helpers for building small random HASTE instances in tests, and
// the scalar test oracles the production schedulers are checked against:
// ScalarEngine (a replay of MarginalEngine that prices every row through
// Network::weighted_task_utility), reference_tabular_greedy (Algorithm 2
// over that replay) and reference_global_greedy (global greedy over that
// replay, eager or lazy), plus the cache-free online oracles: ShadowCharger
// (one negotiation node that prices every stage policy from scratch) and
// reference_online (Algorithm 3's driver replayed over a ShadowCharger
// fleet).
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/dominant_sets.hpp"
#include "core/evaluate.hpp"
#include "core/global_greedy.hpp"
#include "core/objective.hpp"
#include "core/offline.hpp"
#include "dist/online.hpp"
#include "dist/protocol.hpp"
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

  /// Adds the policy's energies to the matching samples; prices nothing,
  /// like MarginalEngine::commit.
  void commit(model::ChargerIndex i, model::SlotIndex k,
              std::span<const model::TaskIndex> tasks, std::span<const double> delta,
              int c) {
    for (int s = 0; s < config_.samples; ++s) {
      if (!matches(s, i, k, c)) continue;
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

/// Test-side oracle for one negotiation node (dist::ChargerNode): a
/// MarginalEngine fed the same local and remote commits as the node, pricing
/// every stage policy from scratch with MarginalEngine::marginal and folding
/// them with the node's switch-avoiding tie-break. No caches, no lazy bounds.
class ShadowCharger {
 public:
  static constexpr double kTieSlack = 1e-12;  // the node's tie band

  ShadowCharger(const model::Network& net, model::ChargerIndex id,
                core::MarginalEngine::Config config,
                const std::vector<model::TaskIndex>& known_tasks,
                std::span<const double> initial_energy = {})
      : net_(net),
        id_(id),
        engine_(net, config, initial_energy),
        dominant_(core::extract_dominant_sets(net, id, known_tasks)),
        previous_(static_cast<std::size_t>(engine_.colors())) {}

  model::ChargerIndex id() const { return id_; }
  bool has_work() const { return !dominant_.empty(); }

  /// The stage's policies (empty = the node does not participate).
  std::vector<core::Policy> policies(model::SlotIndex k) const {
    return core::make_slot_policies(net_, id_, dominant_, k);
  }

  /// The policy the node must hold as its best at stage (k, c), or nullopt
  /// when no policy has a positive marginal; `marginal` receives its value
  /// (0 when there is none).
  std::optional<core::Policy> best(model::SlotIndex k, int c, double& marginal) const {
    const std::optional<double>& previous = previous_[static_cast<std::size_t>(c)];
    std::optional<core::Policy> best;
    double best_marginal = 0.0;
    bool best_is_previous = false;
    for (const core::Policy& policy : policies(k)) {
      const double m = engine_.marginal(id_, k, policy, c);
      const bool is_previous = previous.has_value() && policy.orientation == *previous;
      const bool better =
          !best.has_value()
              ? m > 0.0
              : m > best_marginal * (1.0 + kTieSlack) + kTieSlack ||
                    (is_previous && !best_is_previous &&
                     m >= best_marginal * (1.0 - kTieSlack) - kTieSlack);
      if (better) {
        best = policy;
        best_marginal = m;
        best_is_previous = is_previous;
      }
    }
    marginal = best_marginal;
    return best;
  }

  /// Selects `policy` for stage (k, c): commits it locally and records it.
  void commit(model::SlotIndex k, int c, const core::Policy& policy) {
    engine_.commit(id_, k, policy, c);
    previous_[static_cast<std::size_t>(c)] = policy.orientation;
    selections_[{k, c}] = policy.orientation;
  }

  /// Folds a neighbor's UPDATE into the local view.
  void apply_remote(const dist::Message& update) {
    engine_.commit(update.sender, update.slot, update.policy.tasks,
                   update.policy.slot_energy, update.color);
  }

  /// Orientation selected for stage (k, c), if any.
  std::optional<double> selection(model::SlotIndex k, int c) const {
    const auto it = selections_.find({k, c});
    if (it == selections_.end()) return std::nullopt;
    return it->second;
  }

  int colors() const { return engine_.colors(); }
  double expected_value() const { return engine_.expected_value(); }

 private:
  const model::Network& net_;
  model::ChargerIndex id_;
  core::MarginalEngine engine_;
  std::vector<core::DominantTaskSet> dominant_;
  std::vector<std::optional<double>> previous_;  // last committed orientation per color
  std::map<std::pair<model::SlotIndex, int>, double> selections_;
};

/// Cache-free replay of dist::run_online for the negotiated strategies
/// (kHaste elections and the kHasteSequential token protocol) with the
/// predictor off. Same event order (release batches, then injected failures
/// on slot ties), tau-delayed plan start, harvested-energy seeding, HELLO
/// round, participation rule, election and token loops, bus ledger and
/// schedule splice, over a fresh ShadowCharger fleet per re-plan. Fills the
/// schedule, evaluation, messages, deliveries, message_bytes, rounds,
/// negotiations and the per-re-plan log of the result, each record's
/// plan_value with the sum of the fleet's expected_value()s; the effort
/// counters (row_evaluations, each record's row_evals) stay zero.
///
/// Every election also checks the two facts that let the production fleet
/// share one energy view, and throws std::logic_error when one fails: no two
/// neighbors commit in the same round, and the HELLO-based participation
/// prediction agrees with which neighbors actually have stage policies.
inline dist::OnlineResult reference_online(const model::Network& net,
                                           const dist::OnlineConfig& config) {
  if (config.predictor.enabled ||
      (config.strategy != dist::OnlineStrategy::kHaste &&
       config.strategy != dist::OnlineStrategy::kHasteSequential)) {
    throw std::invalid_argument("reference_online: negotiated, predictor-off runs only");
  }
  const core::MarginalEngine::Config engine_config{config.colors, config.samples,
                                                   config.seed};
  const auto n = static_cast<std::size_t>(net.charger_count());
  dist::OnlineResult result;
  result.schedule = model::Schedule(net.charger_count(), net.horizon());
  std::vector<bool> alive(n, true);
  std::vector<model::TaskIndex> known;

  // One broadcast: a message, its wire bytes, and one delivery per alive
  // neighbor of the sender.
  const auto send = [&](const dist::Message& message) {
    ++result.messages;
    result.message_bytes += message.wire_size();
    for (model::ChargerIndex j : net.neighbors(message.sender)) {
      if (alive[static_cast<std::size_t>(j)]) ++result.deliveries;
    }
  };

  const auto replan = [&](model::SlotIndex event_slot, dist::ReplanTrigger trigger) {
    const model::SlotIndex plan_start =
        std::min<model::SlotIndex>(event_slot + net.time().tau, net.horizon());
    if (plan_start >= net.horizon() || known.empty()) return;
    ++result.negotiations;
    dist::NegotiationRecord record;
    record.trigger = trigger;
    record.event_slot = event_slot;
    record.plan_start = plan_start;
    record.known_tasks = known.size();
    record.alive_chargers =
        static_cast<std::size_t>(std::count(alive.begin(), alive.end(), true));
    const std::uint64_t messages_before = result.messages;
    const std::uint64_t rounds_before = result.rounds;
    const std::vector<double> harvested =
        core::prefix_task_energy(net, result.schedule, plan_start);

    std::vector<std::unique_ptr<ShadowCharger>> fleet;  // alive, ascending id
    std::vector<ShadowCharger*> by_id(n, nullptr);
    std::vector<std::vector<model::TaskIndex>> coverable(n);  // HELLO payloads
    for (model::ChargerIndex i = 0; i < net.charger_count(); ++i) {
      if (!alive[static_cast<std::size_t>(i)]) continue;
      fleet.push_back(
          std::make_unique<ShadowCharger>(net, i, engine_config, known, harvested));
      by_id[static_cast<std::size_t>(i)] = fleet.back().get();
      dist::Message hello;
      hello.sender = i;
      hello.command = dist::Command::kHello;
      for (model::TaskIndex j : known) {
        if (net.potential_power(i, j) > 0.0) hello.policy.tasks.push_back(j);
      }
      coverable[static_cast<std::size_t>(i)] = hello.policy.tasks;
      send(hello);
    }
    std::vector<ShadowCharger*> workers;
    for (const auto& shadow : fleet) {
      if (shadow->has_work()) workers.push_back(shadow.get());
    }
    const int colors = fleet.empty() ? 1 : fleet.front()->colors();

    // A neighbor takes part in stage `k` iff its HELLO lists a task that is
    // active at k and not dropped by the deadline discount.
    const auto participates = [&](model::ChargerIndex j, model::SlotIndex k) {
      if (by_id[static_cast<std::size_t>(j)] == nullptr) return false;
      for (model::TaskIndex t : coverable[static_cast<std::size_t>(j)]) {
        if (net.tasks()[static_cast<std::size_t>(t)].active(k) &&
            net.tardiness_factor(t, k) > 0.0) {
          return true;
        }
      }
      return false;
    };
    const auto select = [&](ShadowCharger& shadow, model::SlotIndex k, int c,
                            const core::Policy& policy, double marginal) {
      shadow.commit(k, c, policy);
      dist::Message update;
      update.sender = shadow.id();
      update.slot = k;
      update.color = c;
      update.command = dist::Command::kUpdate;
      update.marginal = marginal;
      update.policy.orientation = policy.orientation;
      update.policy.tasks = policy.tasks;
      update.policy.slot_energy = policy.slot_energy;
      send(update);
      return update;
    };
    // Delivers a round's UPDATEs in send order to the senders' alive neighbors.
    const auto deliver = [&](const std::vector<dist::Message>& updates) {
      for (const dist::Message& update : updates) {
        for (model::ChargerIndex j : net.neighbors(update.sender)) {
          if (ShadowCharger* receiver = by_id[static_cast<std::size_t>(j)]) {
            receiver->apply_remote(update);
          }
        }
      }
    };

    if (config.strategy == dist::OnlineStrategy::kHasteSequential) {
      for (int c = 0; c < colors; ++c) {
        for (ShadowCharger* worker : workers) {
          ++result.rounds;
          std::vector<dist::Message> updates;
          for (model::SlotIndex k = plan_start; k < net.horizon(); ++k) {
            double marginal = 0.0;
            if (const auto best = worker->best(k, c, marginal)) {
              updates.push_back(select(*worker, k, c, *best, marginal));
            }
          }
          deliver(updates);
        }
      }
    } else {
      for (model::SlotIndex k = plan_start; k < net.horizon(); ++k) {
        for (int c = 0; c < colors; ++c) {
          std::vector<ShadowCharger*> participants;
          std::vector<bool> participating(n, false);
          for (ShadowCharger* worker : workers) {
            if (!worker->policies(k).empty()) {
              participants.push_back(worker);
              participating[static_cast<std::size_t>(worker->id())] = true;
            }
          }
          for (ShadowCharger* participant : participants) {
            for (model::ChargerIndex j : net.neighbors(participant->id())) {
              if (participates(j, k) != participating[static_cast<std::size_t>(j)]) {
                throw std::logic_error("reference_online: HELLO predicts charger " +
                                       std::to_string(j) + " wrongly at slot " +
                                       std::to_string(k));
              }
            }
          }
          std::vector<bool> decided(participants.size(), false);
          // What the stage's broadcasts told every neighbor: the latest
          // VALUE per sender, and whether the sender is out of the stage
          // (announced <= 0 or committed).
          std::vector<std::optional<double>> value(n);
          std::vector<bool> out(n, false);
          std::size_t stage_rounds = 0;
          while (std::find(decided.begin(), decided.end(), false) != decided.end()) {
            if (++stage_rounds > participants.size() + 3) {
              throw std::logic_error("reference_online: stage failed to converge");
            }
            ++result.rounds;
            std::vector<dist::Message> values;
            for (std::size_t p = 0; p < participants.size(); ++p) {
              if (decided[p]) continue;
              double marginal = 0.0;
              const bool positive = participants[p]->best(k, c, marginal).has_value();
              dist::Message announce;
              announce.sender = participants[p]->id();
              announce.slot = k;
              announce.color = c;
              announce.marginal = positive ? marginal : 0.0;
              send(announce);
              values.push_back(announce);
              if (!positive) decided[p] = true;
            }
            for (const dist::Message& announce : values) {
              const auto sender = static_cast<std::size_t>(announce.sender);
              value[sender] = announce.marginal;
              if (announce.marginal <= 0.0) out[sender] = true;
            }
            std::vector<dist::Message> updates;
            for (std::size_t p = 0; p < participants.size(); ++p) {
              if (decided[p]) continue;
              ShadowCharger& shadow = *participants[p];
              double marginal = 0.0;
              const std::optional<core::Policy> best = shadow.best(k, c, marginal);
              if (!best.has_value()) continue;
              bool local_maximum = true;
              for (model::ChargerIndex j : net.neighbors(shadow.id())) {
                const auto jj = static_cast<std::size_t>(j);
                if (!participates(j, k) || out[jj]) continue;
                if (!value[jj].has_value() || *value[jj] > marginal ||
                    (*value[jj] == marginal && j < shadow.id())) {
                  local_maximum = false;
                  break;
                }
              }
              if (!local_maximum) continue;
              decided[p] = true;
              updates.push_back(select(shadow, k, c, *best, marginal));
            }
            for (std::size_t a = 0; a < updates.size(); ++a) {
              const auto neighbors = net.neighbors(updates[a].sender);
              for (std::size_t b = a + 1; b < updates.size(); ++b) {
                if (std::binary_search(neighbors.begin(), neighbors.end(),
                                       updates[b].sender)) {
                  throw std::logic_error(
                      "reference_online: neighbors " + std::to_string(updates[a].sender) +
                      " and " + std::to_string(updates[b].sender) +
                      " committed in one round");
                }
              }
            }
            deliver(updates);
            for (const dist::Message& update : updates) {
              out[static_cast<std::size_t>(update.sender)] = true;
            }
          }
        }
      }
    }

    // Splice: every alive charger's plan replaces its rows from plan_start
    // on, with the final color's selection where it has one.
    for (const auto& shadow : fleet) {
      for (model::SlotIndex k = plan_start; k < net.horizon(); ++k) {
        result.schedule.clear(shadow->id(), k);
        const int c = core::MarginalEngine::final_color(config.seed, shadow->id(), k,
                                                        shadow->colors());
        if (const auto orientation = shadow->selection(k, c)) {
          result.schedule.assign(shadow->id(), k, *orientation);
        }
      }
    }
    record.messages = result.messages - messages_before;
    record.rounds = result.rounds - rounds_before;
    record.plan_value = 0.0;
    for (const auto& shadow : fleet) record.plan_value += shadow->expected_value();
    result.log.push_back(record);
  };

  // Events: release batches in slot order, then the injected failures;
  // a stable sort by slot keeps arrivals ahead of failures on ties.
  struct Event {
    model::SlotIndex slot;
    model::ChargerIndex failed;  // -1 for an arrival batch
    std::vector<model::TaskIndex> tasks;
  };
  std::map<model::SlotIndex, std::vector<model::TaskIndex>> batches;
  for (model::TaskIndex j = 0; j < net.task_count(); ++j) {
    batches[net.tasks()[static_cast<std::size_t>(j)].release_slot].push_back(j);
  }
  std::vector<Event> events;
  for (const auto& [slot, batch] : batches) events.push_back({slot, -1, batch});
  for (const dist::ChargerFailure& failure : config.failures) {
    if (failure.charger >= 0 && failure.charger < net.charger_count()) {
      events.push_back({failure.slot, failure.charger, {}});
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) { return a.slot < b.slot; });
  for (const Event& event : events) {
    if (event.failed < 0) {
      known.insert(known.end(), event.tasks.begin(), event.tasks.end());
      std::sort(known.begin(), known.end());
      replan(event.slot, dist::ReplanTrigger::kArrival);
    } else if (alive[static_cast<std::size_t>(event.failed)]) {
      alive[static_cast<std::size_t>(event.failed)] = false;
      result.schedule.disable_from(event.failed, event.slot);
      replan(event.slot, dist::ReplanTrigger::kFailure);
    }
  }
  result.evaluation = core::evaluate_schedule(net, result.schedule);
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

/// Asserts an online run matches reference_online's replay: schedule,
/// evaluation, the whole bus ledger and every re-plan record except its
/// effort counter and its plan value (NaN in a predictor-off run).
inline void expect_matches_reference_online(const dist::OnlineResult& actual,
                                            const dist::OnlineResult& reference) {
  expect_identical_schedules(actual.schedule, reference.schedule);
  EXPECT_EQ(actual.evaluation.weighted_utility, reference.evaluation.weighted_utility);
  EXPECT_EQ(actual.evaluation.relaxed_weighted_utility,
            reference.evaluation.relaxed_weighted_utility);
  EXPECT_EQ(actual.evaluation.switches, reference.evaluation.switches);
  EXPECT_EQ(actual.messages, reference.messages);
  EXPECT_EQ(actual.deliveries, reference.deliveries);
  EXPECT_EQ(actual.message_bytes, reference.message_bytes);
  EXPECT_EQ(actual.rounds, reference.rounds);
  EXPECT_EQ(actual.negotiations, reference.negotiations);
  ASSERT_EQ(actual.log.size(), reference.log.size());
  for (std::size_t r = 0; r < actual.log.size(); ++r) {
    const dist::NegotiationRecord& a = actual.log[r];
    const dist::NegotiationRecord& b = reference.log[r];
    EXPECT_EQ(a.trigger, b.trigger) << "record " << r;
    EXPECT_EQ(a.event_slot, b.event_slot) << "record " << r;
    EXPECT_EQ(a.plan_start, b.plan_start) << "record " << r;
    EXPECT_EQ(a.known_tasks, b.known_tasks) << "record " << r;
    EXPECT_EQ(a.alive_chargers, b.alive_chargers) << "record " << r;
    EXPECT_EQ(a.messages, b.messages) << "record " << r;
    EXPECT_EQ(a.rounds, b.rounds) << "record " << r;
  }
}

}  // namespace haste::testing_helpers
