// Per-charger state machine of the distributed online algorithm (Alg. 3).
//
// A node plans with purely local knowledge: its own dominant task sets over
// the tasks it has heard of, the coverable-task lists its neighbors announced
// (HELLO messages), the VALUE announcements of undecided neighbors, and the
// UPDATE messages of committed ones. The shared color panel is derived by
// hashing the common seed (see MarginalEngine::panel_color), so no randomness
// is exchanged.
//
// The negotiation for one (slot, color) stage proceeds in synchronous rounds
// driven by the orchestrator (dist/online.cpp):
//   1. every undecided participant broadcasts its best marginal (VALUE);
//   2. a node whose (marginal, id) beats every undecided participating
//      neighbor commits: it adds the S-C tuple locally and broadcasts UPDATE;
//   3. receivers of UPDATE apply the remote commit and recompute.
// Marginals only shrink as commits accumulate (submodularity), so acting on
// a one-round-old neighbor value is safe — exactly the argument the paper
// uses to order the asynchronous executions.
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "core/objective.hpp"
#include "dist/protocol.hpp"
#include "model/network.hpp"
#include "model/schedule.hpp"

namespace haste::dist {

/// One charger participating in the distributed negotiation.
class ChargerNode {
 public:
  /// Stage marginals are priced through a term cache shared by all stage
  /// policies, keyed by (plan column, sample) and refreshed lazily via the
  /// engine's per-(task, sample) versions — plus per-policy upper bounds for
  /// lazy partition maxima — so a re-negotiation after a remote UPDATE
  /// touches only the dirtied columns of the policies still in contention.
  /// Every announced marginal is bit-identical to the engine's from-scratch
  /// MarginalEngine::marginal of the same policy.
  ChargerNode(const model::Network& net, model::ChargerIndex id,
              core::MarginalEngine::Config engine_config);

  model::ChargerIndex id() const { return id_; }

  /// Starts a new plan over `known_tasks` (the tasks released so far) with
  /// the given per-task already-harvested energies (may be empty = zeros).
  /// Returns the HELLO message announcing this node's coverable tasks.
  Message begin_plan(const std::vector<model::TaskIndex>& known_tasks,
                     std::span<const double> initial_energy);

  /// True if this node can cover at least one known task (otherwise it takes
  /// no part in the negotiation).
  bool has_work() const { return !dominant_.empty(); }

  /// Prepares the (slot, color) stage. Returns true if the node participates
  /// (has at least one policy with active tasks in the slot).
  bool begin_stage(model::SlotIndex slot, int color);

  /// True once this node has committed or gone passive for the stage.
  bool decided() const { return decided_; }

  /// The VALUE broadcast for this round; nullopt once decided. A node whose
  /// best marginal is not positive announces 0 and goes passive.
  std::optional<Message> make_value_message();

  /// Handles a received message (HELLO, VALUE, or UPDATE).
  void receive(const Message& message);

  /// Attempts to commit; returns the UPDATE broadcast on success.
  std::optional<Message> try_commit();

  /// Commits the current best unconditionally (no neighbor comparison):
  /// the sequential/ordered protocol of Theorem 6.1's proof, where chargers
  /// decide in a fixed global order and only announce. Returns the UPDATE
  /// broadcast, or nullopt when no policy has positive marginal.
  std::optional<Message> force_commit();

  /// Writes this node's sampled selections (final color per slot, hashed
  /// from `seed`) into `schedule` for slots in [first_slot, horizon),
  /// clearing those slots first.
  void write_schedule(model::Schedule& schedule, model::SlotIndex first_slot) const;

  /// The planner's local expected utility estimate (diagnostics).
  double local_expected_value() const;

  /// Evaluation counters of the current plan's engine (zeroed at every
  /// begin_plan, since the engine is rebuilt per plan); all-zero before the
  /// first plan. Lets the online driver charge row_term work to re-plans.
  core::MarginalEngine::Stats engine_stats() const {
    return engine_.has_value() ? engine_->stats() : core::MarginalEngine::Stats{};
  }

 private:
  void recompute_best();
  double refresh_policy(std::size_t q);  ///< lazily refreshed marginal
  Message commit_current();  ///< commits best_policy_ and builds the UPDATE
  bool neighbor_participates(model::ChargerIndex j, model::SlotIndex slot) const;

  const model::Network* net_;
  model::ChargerIndex id_;
  core::MarginalEngine::Config engine_config_;

  std::vector<core::DominantTaskSet> dominant_;
  std::optional<core::MarginalEngine> engine_;

  // What each neighbor announced in its HELLO: coverable known tasks.
  std::map<model::ChargerIndex, std::vector<model::TaskIndex>> neighbor_tasks_;

  // Stage state.
  model::SlotIndex stage_slot_ = 0;
  int stage_color_ = 0;
  std::vector<core::Policy> stage_policies_;
  // Panel samples whose color at (id_, stage_slot_) matches stage_color_ —
  // the only samples a stage marginal depends on (ascending, so lazy
  // refreshes re-sum in the engine's evaluation order).
  std::vector<int> stage_samples_;
  // Per stage policy: the last exactly-computed marginal. It doubles as an
  // upper bound for lazy partition maxima (marginals only shrink); the
  // actual pricing lives in the shared plan columns below.
  struct PolicyTermCache {
    double marginal = 0.0;
    bool valid = false;
  };
  std::vector<PolicyTermCache> stage_cache_;
  // Column pricing, shared across policies AND stages of one plan: the
  // per-slot energy a task would receive is orientation- and
  // slot-independent, so every policy of every stage covering task j prices
  // the same utility-delta term. Terms are keyed by (distinct coverable
  // task, sample) — a "column" — and stamped with the engine's (task,
  // sample) version; a term priced in one stage stays fresh for later stages
  // until a commit actually moves that task's utility in that sample, and a
  // remote UPDATE re-prices only the columns it dirtied, once, for all
  // policies at once. Tardy rows, whose deadline-discounted slot_energy
  // deviates from the column's base delta, get overflow columns keyed
  // (task, delta).
  std::vector<model::TaskIndex> plan_col_task_;  // distinct coverable tasks
  std::vector<double> plan_col_delta_;           // shared per-slot energy per column
  std::vector<std::ptrdiff_t> plan_col_of_;      // [task] -> column, or -1
  std::vector<std::size_t> stage_policy_col_;    // row -> column, policies concatenated
  std::vector<std::size_t> stage_policy_row0_;   // [q]: first row of policy q
  std::vector<double> plan_terms_;               // [col * samples + s]
  std::vector<std::uint64_t> plan_versions_;     // same layout as `plan_terms_`
  int best_policy_ = -1;
  double best_marginal_ = 0.0;
  bool decided_ = true;
  std::map<model::ChargerIndex, double> neighbor_values_;  // latest VALUE
  std::map<model::ChargerIndex, bool> neighbor_decided_;

  // Selections Q_i restricted to this node: per slot, per color, the chosen
  // policy (if any).
  std::map<model::SlotIndex, std::vector<std::optional<core::Policy>>> selections_;

  // Last committed orientation per color (switch-avoiding tie-break).
  std::vector<std::optional<double>> previous_orientation_;

  // Cross-plan reuse caches, effective when the same node object serves
  // consecutive re-plans (OnlineConfig::reuse_nodes). Both memoize pure
  // functions, so hitting them is bit-identical to recomputing:
  //   - dominant sets depend only on (net, id, known_tasks);
  //   - a column's initial term row_term(0, task, delta) depends only on the
  //     task's harvested base energy (delta is fixed per column — the
  //     orientation- and slot-independent per-slot energy).
  std::vector<model::TaskIndex> cached_known_;  // known_tasks of dominant_
  bool dominant_cached_ = false;
  std::vector<std::uint64_t> term_cache_base_;  // [task]: bit pattern of base
  std::vector<double> term_cache_term_;         // [task]: cached initial term
  std::vector<char> term_cache_valid_;          // [task]
};

}  // namespace haste::dist
