// The HASTE-R objective machinery:
//
//  * PolicyPartition — the ground set of RP2: for each (charger, slot), the
//    scheduling policies derived from the charger's dominant task sets,
//    restricted to the tasks active in that slot.
//  * MarginalEngine — an incremental oracle for the expected charging utility
//    after S-C tuple sampling, F(Q) = E_c[f(sample_c(Q))]. The expectation
//    over colorings is estimated with a fixed panel of sampled color vectors
//    (common random numbers), so marginals are consistent across greedy steps
//    and the whole algorithm is deterministic given the seed. With C = 1 the
//    panel is a single trivial sample and the engine computes f exactly.
//
// Color vectors are derived by hashing (seed, sample, charger, slot) rather
// than drawn from a shared stream: distributed nodes can therefore agree on
// the panel without exchanging any randomness (see dist/online).
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "core/dominant_sets.hpp"
#include "core/kernels.hpp"
#include "model/network.hpp"

namespace haste::core {

/// One scheduling policy of a partition: a dominant task set restricted to
/// the tasks active in the partition's slot.
struct Policy {
  double orientation = 0.0;
  std::vector<model::TaskIndex> tasks;  ///< active covered tasks, sorted
  std::vector<double> slot_energy;      ///< per task: P_r(s_i, o_j) * T_s (J)
};

/// The partition Theta_{i,k}: all policies of charger `charger` at `slot`.
///
/// Besides the per-policy vectors (kept for the message protocol, which
/// ships individual policies), a partition also stores every policy's
/// (task, energy) rows in one CSR-style flat layout so the hot evaluation
/// loops walk contiguous memory instead of chasing one heap allocation per
/// policy. build_partitions() fills that layout through finalize(net) for
/// every partition it returns.
struct PolicyPartition {
  model::ChargerIndex charger = 0;
  model::SlotIndex slot = 0;
  std::vector<Policy> policies;

  // CSR rows over all policies: policy q's rows live at
  // [row_offsets[q], row_offsets[q + 1]) of flat_tasks / flat_energy.
  std::vector<std::int32_t> row_offsets;
  std::vector<model::TaskIndex> flat_tasks;
  std::vector<double> flat_energy;
  // Precomputed row columns (parallel to flat_tasks): each row's task weight
  // and required energy, gathered once at finalize(net) so the evaluation
  // kernels read them contiguously instead of re-gathering per (row, sample)
  // forever after.
  std::vector<double> flat_weight;
  std::vector<double> flat_required;
  // Partition-local column index, also built by finalize(net).
  // Within a partition every row of the same task carries the same energy
  // delta — potential_power(i, j) * slot_seconds does not depend on the
  // policy — so the flat rows collapse to the partition's distinct
  // (task, delta) columns. flat_col maps each flat row to its column; the
  // col_* arrays are the deduplicated SoA columns. partition_marginals
  // prices the (2-3x smaller) column set once per sample and gathers per
  // policy; bit-identical because rows sharing a column have identical
  // inputs and therefore identical terms.
  std::vector<std::int32_t> flat_col;
  std::vector<model::TaskIndex> col_task;
  std::vector<double> col_delta;
  std::vector<double> col_weight;
  std::vector<double> col_required;

  /// Builds the CSR arrays, the per-row weight/required columns and the
  /// column index from `policies`.
  void finalize(const model::Network& net);

  /// Contiguous (task, energy) rows of policy `q`. Inline: the evaluation
  /// loops call these per candidate, so an out-of-line hop per accessor is
  /// measurable at scale.
  std::span<const model::TaskIndex> policy_tasks(std::size_t q) const {
    const auto begin = static_cast<std::size_t>(row_offsets[q]);
    const auto end = static_cast<std::size_t>(row_offsets[q + 1]);
    return {flat_tasks.data() + begin, end - begin};
  }
  std::span<const double> policy_energy(std::size_t q) const {
    const auto begin = static_cast<std::size_t>(row_offsets[q]);
    const auto end = static_cast<std::size_t>(row_offsets[q + 1]);
    return {flat_energy.data() + begin, end - begin};
  }

  /// Policy `q` as a kernel row batch with its weight/required columns.
  kernels::RowView policy_rows(std::size_t q) const {
    const auto begin = static_cast<std::size_t>(row_offsets[q]);
    const auto count = static_cast<std::size_t>(row_offsets[q + 1]) - begin;
    return kernels::RowView{{flat_tasks.data() + begin, count},
                            {flat_energy.data() + begin, count},
                            {flat_weight.data() + begin, count},
                            {flat_required.data() + begin, count}};
  }
};

/// Builds the ground set over slots [first_slot, net.horizon()) for all
/// chargers. Dominant sets are computed once per charger from `candidates`
/// (default: every task that covers it) and filtered per slot to active
/// tasks; empty policies, duplicate task sets within a partition, and empty
/// partitions are dropped. Partitions are ordered slot-major (all chargers of
/// slot k before slot k+1), which the schedulers rely on for their
/// switch-avoiding tie-break.
std::vector<PolicyPartition> build_partitions(const model::Network& net,
                                              model::SlotIndex first_slot = 0);

/// As above but restricted to the given candidate tasks (online case, where
/// only released tasks are known).
std::vector<PolicyPartition> build_partitions(const model::Network& net,
                                              model::SlotIndex first_slot,
                                              const std::vector<model::TaskIndex>& candidates);

/// Filters one charger's dominant sets to the tasks active at `slot`,
/// deduplicating policies with identical active sets. Exposed for the
/// distributed scheduler, which builds partitions per node.
std::vector<Policy> make_slot_policies(const model::Network& net, model::ChargerIndex i,
                                       const std::vector<DominantTaskSet>& dominant,
                                       model::SlotIndex slot);

/// Incremental estimator of the expected utility after S-C tuple sampling.
class MarginalEngine {
 public:
  struct Config {
    int colors = 1;        ///< C; 1 degenerates to exact locally-greedy
    int samples = 1;       ///< color-vector panel size S (>= 1); ignored, forced
                           ///< to 1, when colors == 1
    std::uint64_t seed = 1;///< shared randomness seed for the color panel
  };

  /// `initial_energy`, when non-empty, must have one entry per task of the
  /// network: energy already harvested (online re-planning).
  MarginalEngine(const model::Network& net, Config config,
                 std::span<const double> initial_energy = {});

  /// Color assigned to partition (charger i, slot k) in panel sample `s`.
  /// Pure function of (seed, s, i, k) so independent engines agree.
  static int panel_color(std::uint64_t seed, int sample, model::ChargerIndex i,
                         model::SlotIndex k, int colors);

  /// The color c_{i,k} drawn for the final sampling step (line 7-8 of
  /// Algorithm 2); also a pure hash so distributed nodes agree.
  static int final_color(std::uint64_t seed, model::ChargerIndex i, model::SlotIndex k,
                         int colors);

  /// Marginal gain of labeling `policy` of charger `i` at slot `k` with color
  /// `c`: the increase of the panel-averaged utility.
  double marginal(model::ChargerIndex i, model::SlotIndex k, const Policy& policy,
                  int c) const {
    return marginal(i, k, policy.tasks, policy.slot_energy, c);
  }

  /// Span-based core of `marginal`: evaluates one policy given as parallel
  /// (task, energy) rows — e.g. one CSR row range of a PolicyPartition.
  double marginal(model::ChargerIndex i, model::SlotIndex k,
                  std::span<const model::TaskIndex> tasks,
                  std::span<const double> slot_energy, int c) const {
    return marginal(i, k, kernels::RowView{tasks, slot_energy, {}, {}}, c);
  }

  /// RowView core of `marginal`; PolicyPartition::policy_rows attaches the
  /// precomputed weight/required columns, which is the fastest entry.
  double marginal(model::ChargerIndex i, model::SlotIndex k,
                  const kernels::RowView& rows, int c) const;

  /// Marginals of EVERY policy of `partition` for color `c` in one call:
  /// out[q] = marginal(partition.charger, partition.slot, policy q, c), bit
  /// for bit. The caller passes the partition's panel colors:
  /// sample_colors[s] must equal panel_color(seed(), s, partition.charger,
  /// partition.slot, colors()) — the offline scheduler visits every
  /// partition once per color stage, so it hashes them once per run. This
  /// prices the partition's deduplicated (task, delta) columns across all
  /// matching samples in one panel sweep (the unit the offline loop actually
  /// consumes), then gather-folds each policy's row segment in row order —
  /// the per-policy accumulation order and counter totals of marginal(), at
  /// a fraction of the per-call overhead and of the arithmetic.
  void partition_marginals(const PolicyPartition& partition, int c,
                           std::span<const int> sample_colors, double* out) const;

  /// Commits the S-C tuple: adds the policy's slot energies to every panel
  /// sample whose color at (i, k) is `c` and bumps the versions of the rows
  /// whose utility moved. Prices nothing — a caller that wants the realized
  /// gain takes marginal() of the same policy just before committing.
  void commit(model::ChargerIndex i, model::SlotIndex k, const Policy& policy, int c) {
    commit(i, k, policy.tasks, policy.slot_energy, c);
  }

  /// Span-based core of `commit`.
  void commit(model::ChargerIndex i, model::SlotIndex k,
              std::span<const model::TaskIndex> tasks,
              std::span<const double> slot_energy, int c);

  /// Current estimate of F(Q) (panel average of the weighted utility).
  double expected_value() const;

  int colors() const { return config_.colors; }
  int samples() const { return config_.samples; }
  std::uint64_t seed() const { return config_.seed; }

  // --- Per-(task, sample) dirty tracking -----------------------------------
  //
  // Every commit that changes a task's *utility in panel sample s* bumps the
  // (task, sample) version counter. A marginal for color c depends on the
  // engine state only through its tasks' utilities in the samples whose color
  // is c, so a cached marginal whose (task, relevant-sample) versions are
  // unchanged is EXACT — not just a submodular upper bound. Commits that only
  // pour energy into saturated tasks bump nothing: utility shapes are concave
  // and non-decreasing, so a task that is flat across one commit stays flat
  // for the rest of the run. The distributed nodes use this for cache reuse
  // across remote commits.

  /// Number of sample-level utility changes of task `j` in sample `s`.
  std::uint64_t sample_version(int s, model::TaskIndex j) const {
    return sample_version_[static_cast<std::size_t>(s) *
                               static_cast<std::size_t>(net_->task_count()) +
                           static_cast<std::size_t>(j)];
  }

  /// Total number of energy-changing commits so far.
  std::uint64_t commit_count() const { return commit_count_; }

  /// One row of a marginal in sample `s`: the utility delta of task `j` when
  /// `delta` energy is added on top of its current accumulation. Summing
  /// row_term over a policy's rows in row order reproduces `gain_in_sample`
  /// bit for bit, which lets callers cache per-row terms and refresh only the
  /// rows whose sample version moved.
  double row_term(int s, model::TaskIndex j, double delta) const;

  /// Evaluation-effort counters, updated by the const oracle methods (thread
  /// safe: the initial panel builds evaluate rows in parallel).
  struct Stats {
    std::uint64_t row_terms = 0;  ///< per-(row, sample) utility-delta evaluations
    std::uint64_t marginals = 0;  ///< full marginal() oracle calls
    std::uint64_t commits = 0;    ///< energy-changing commits
  };
  Stats stats() const {
    return {row_term_count_.load(std::memory_order_relaxed),
            marginal_count_.load(std::memory_order_relaxed), commit_count_};
  }

 private:
  double gain_in_sample(int s, const kernels::RowView& rows) const;

  const model::Network* net_;
  Config config_;
  // SoA utility columns; weighted_utility is bit-identical to
  // Network::weighted_task_utility by the UtilityTable contract.
  kernels::UtilityTable table_;
  // energy_[s * m + j]: accumulated relaxed energy of task j in sample s.
  std::vector<double> energy_;
  std::vector<std::uint64_t> sample_version_;  // [s * m + j] dirty counters
  std::uint64_t commit_count_ = 0;
  mutable std::atomic<std::uint64_t> row_term_count_{0};
  mutable std::atomic<std::uint64_t> marginal_count_{0};
};

}  // namespace haste::core
