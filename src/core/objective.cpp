#include "core/objective.hpp"

#include <algorithm>

#include "util/rng.hpp"

namespace haste::core {

void PolicyPartition::finalize(const model::Network& net) {
  row_offsets.clear();
  flat_tasks.clear();
  flat_energy.clear();
  flat_weight.clear();
  flat_required.clear();
  flat_col.clear();
  col_task.clear();
  col_delta.clear();
  col_weight.clear();
  col_required.clear();
  row_offsets.reserve(policies.size() + 1);
  std::size_t rows = 0;
  for (const Policy& policy : policies) rows += policy.tasks.size();
  flat_tasks.reserve(rows);
  flat_energy.reserve(rows);
  row_offsets.push_back(0);
  for (const Policy& policy : policies) {
    flat_tasks.insert(flat_tasks.end(), policy.tasks.begin(), policy.tasks.end());
    flat_energy.insert(flat_energy.end(), policy.slot_energy.begin(),
                       policy.slot_energy.end());
    row_offsets.push_back(static_cast<std::int32_t>(flat_tasks.size()));
  }
  const auto& tasks = net.tasks();
  flat_weight.reserve(flat_tasks.size());
  flat_required.reserve(flat_tasks.size());
  for (model::TaskIndex j : flat_tasks) {
    const model::Task& task = tasks[static_cast<std::size_t>(j)];
    flat_weight.push_back(task.weight);
    flat_required.push_back(task.required_energy);
  }
  // Column index: dedup the flat rows on exact (task, delta) equality. The
  // linear scan is fine — partitions hold a handful of distinct columns. Keyed
  // on both fields for safety even though delta is task-determined here; a
  // row whose delta is NaN never matches and simply gets its own column.
  flat_col.reserve(flat_tasks.size());
  for (std::size_t t = 0; t < flat_tasks.size(); ++t) {
    const model::TaskIndex j = flat_tasks[t];
    const double d = flat_energy[t];
    std::int32_t col = -1;
    for (std::size_t cidx = 0; cidx < col_task.size(); ++cidx) {
      if (col_task[cidx] == j && col_delta[cidx] == d) {
        col = static_cast<std::int32_t>(cidx);
        break;
      }
    }
    if (col < 0) {
      col = static_cast<std::int32_t>(col_task.size());
      col_task.push_back(j);
      col_delta.push_back(d);
      col_weight.push_back(flat_weight[t]);
      col_required.push_back(flat_required[t]);
    }
    flat_col.push_back(col);
  }
}

std::vector<Policy> make_slot_policies(const model::Network& net, model::ChargerIndex i,
                                       const std::vector<DominantTaskSet>& dominant,
                                       model::SlotIndex slot) {
  const double slot_seconds = net.time().slot_seconds;
  const bool deadlines = net.has_deadlines();
  std::vector<Policy> policies;
  policies.reserve(dominant.size());
  for (const DominantTaskSet& set : dominant) {
    Policy policy;
    policy.orientation = set.orientation;
    for (model::TaskIndex j : set.tasks) {
      if (net.tasks()[static_cast<std::size_t>(j)].active(slot)) {
        double energy = net.potential_power(i, j) * slot_seconds;
        if (deadlines) {
          // Deadline discount, applied at row construction so every consumer
          // (greedy, kernels, brute force, the message protocol) prices the
          // same effective energy. A zero factor (hard-tardy or infeasible
          // row) drops the row before it enters the partition; a unit factor
          // skips the multiply so pre-deadline rows stay bit-identical to
          // the deadline-free expression.
          const double factor = net.tardiness_factor(j, slot);
          if (factor == 0.0) continue;
          if (factor != 1.0) energy *= factor;
        }
        policy.tasks.push_back(j);
        policy.slot_energy.push_back(energy);
      }
    }
    if (policy.tasks.empty()) continue;
    // Deduplicate policies whose active task sets coincide (frequent once
    // inactive tasks are dropped); the first witness orientation wins.
    const bool duplicate =
        std::any_of(policies.begin(), policies.end(),
                    [&](const Policy& other) { return other.tasks == policy.tasks; });
    if (!duplicate) policies.push_back(std::move(policy));
  }
  return policies;
}

namespace {

std::vector<PolicyPartition> build_partitions_impl(
    const model::Network& net, model::SlotIndex first_slot,
    const std::vector<std::vector<model::TaskIndex>>& candidates_per_charger) {
  const model::ChargerIndex n = net.charger_count();
  const double slot_seconds = net.time().slot_seconds;
  const bool deadlines = net.has_deadlines();
  // A dominant set pre-resolved once per charger: its covered rows with the
  // slot-invariant per-slot energy (the power law is fixed per (charger,
  // task)) and each row's activity window. The slot loop below then only
  // window-filters these rows instead of re-deriving power and activity per
  // (slot, charger, row) the way make_slot_policies does — same policies,
  // bit-identical energies, a fraction of the work. Deadline discounts are
  // slot-dependent and applied inside the slot loop.
  struct ResolvedSet {
    double orientation = 0.0;
    std::vector<model::TaskIndex> tasks;
    std::vector<double> energy;
    std::vector<model::SlotIndex> release;
    std::vector<model::SlotIndex> end;
    // Deadline columns, filled only when the network carries deadlines: the
    // row's deadline_slot (kNoDeadline when free — slot_factor treats that
    // as never binding) with infeasible hard-mode rows pre-collapsed to a
    // deadline of 0 so the slot loop's single `k >= deadline` test covers
    // both "tardy" and "never worth a row".
    std::vector<model::SlotIndex> deadline;
  };
  std::vector<std::vector<ResolvedSet>> resolved(static_cast<std::size_t>(n));
  for (model::ChargerIndex i = 0; i < n; ++i) {
    const std::vector<DominantTaskSet> dominant =
        extract_dominant_sets(net, i, candidates_per_charger[static_cast<std::size_t>(i)]);
    auto& sets = resolved[static_cast<std::size_t>(i)];
    sets.reserve(dominant.size());
    for (const DominantTaskSet& set : dominant) {
      ResolvedSet rows;
      rows.orientation = set.orientation;
      rows.tasks.reserve(set.tasks.size());
      rows.energy.reserve(set.tasks.size());
      rows.release.reserve(set.tasks.size());
      rows.end.reserve(set.tasks.size());
      if (deadlines) rows.deadline.reserve(set.tasks.size());
      for (model::TaskIndex j : set.tasks) {
        const model::Task& task = net.tasks()[static_cast<std::size_t>(j)];
        rows.tasks.push_back(j);
        rows.energy.push_back(net.potential_power(i, j) * slot_seconds);
        rows.release.push_back(task.release_slot);
        rows.end.push_back(task.end_slot);
        if (deadlines) {
          rows.deadline.push_back(net.deadline_infeasible(j) ? 0 : task.deadline_slot);
        }
      }
      sets.push_back(std::move(rows));
    }
  }
  const model::DeadlinePolicy& deadline_policy = net.deadline_policy();
  std::vector<PolicyPartition> partitions;
  partitions.reserve(static_cast<std::size_t>(net.horizon() - first_slot) *
                     static_cast<std::size_t>(n));
  for (model::SlotIndex k = first_slot; k < net.horizon(); ++k) {
    for (model::ChargerIndex i = 0; i < n; ++i) {
      const auto& sets = resolved[static_cast<std::size_t>(i)];
      PolicyPartition partition;
      partition.charger = i;
      partition.slot = k;
      partition.policies.reserve(sets.size());
      for (const ResolvedSet& rows : sets) {
        Policy policy;
        policy.orientation = rows.orientation;
        policy.tasks.reserve(rows.tasks.size());
        policy.slot_energy.reserve(rows.tasks.size());
        for (std::size_t r = 0; r < rows.tasks.size(); ++r) {
          if (rows.release[r] <= k && k < rows.end[r]) {
            double energy = rows.energy[r];
            // Same discount rule (and bit pattern) as make_slot_policies:
            // both reduce to DeadlinePolicy::slot_factor, rows.energy holds
            // the undiscounted potential * T_s product, factor == 1 rows
            // reuse it untouched, and factor == 0 rows (hard-tardy or
            // infeasible) never enter the partition. The `k >= deadline`
            // pre-test keeps rows whose deadline never binds — including
            // every row of a deadline-free or inert-deadline instance — on
            // the exact deadline-free fast path: no factor arithmetic at
            // all, just this one comparison.
            if (deadlines && k >= rows.deadline[r]) {
              const double factor = deadline_policy.slot_factor(k, rows.deadline[r]);
              if (factor == 0.0) continue;
              if (factor != 1.0) energy *= factor;
            }
            policy.tasks.push_back(rows.tasks[r]);
            policy.slot_energy.push_back(energy);
          }
        }
        if (policy.tasks.empty()) continue;
        // Same dedup rule as make_slot_policies: first witness orientation
        // wins among policies whose active task sets coincide.
        const bool duplicate =
            std::any_of(partition.policies.begin(), partition.policies.end(),
                        [&](const Policy& other) { return other.tasks == policy.tasks; });
        if (!duplicate) partition.policies.push_back(std::move(policy));
      }
      if (!partition.policies.empty()) {
        partition.finalize(net);
        partitions.push_back(std::move(partition));
      }
    }
  }
  return partitions;
}

}  // namespace

std::vector<PolicyPartition> build_partitions(const model::Network& net,
                                              model::SlotIndex first_slot) {
  std::vector<std::vector<model::TaskIndex>> candidates(
      static_cast<std::size_t>(net.charger_count()));
  for (model::ChargerIndex i = 0; i < net.charger_count(); ++i) {
    const auto span = net.coverable_tasks(i);
    candidates[static_cast<std::size_t>(i)].assign(span.begin(), span.end());
  }
  return build_partitions_impl(net, first_slot, candidates);
}

std::vector<PolicyPartition> build_partitions(const model::Network& net,
                                              model::SlotIndex first_slot,
                                              const std::vector<model::TaskIndex>& candidates) {
  std::vector<std::vector<model::TaskIndex>> per_charger(
      static_cast<std::size_t>(net.charger_count()));
  for (model::ChargerIndex i = 0; i < net.charger_count(); ++i) {
    for (model::TaskIndex j : candidates) {
      if (net.potential_power(i, j) > 0.0) {
        per_charger[static_cast<std::size_t>(i)].push_back(j);
      }
    }
  }
  return build_partitions_impl(net, first_slot, per_charger);
}

MarginalEngine::MarginalEngine(const model::Network& net, Config config,
                               std::span<const double> initial_energy)
    : net_(&net),
      config_(config),
      table_(kernels::UtilityTable::from(net)) {
  if (config_.colors < 1) config_.colors = 1;
  if (config_.samples < 1) config_.samples = 1;
  if (config_.colors == 1) config_.samples = 1;  // expectation is exact
  const auto m = static_cast<std::size_t>(net.task_count());
  energy_.assign(static_cast<std::size_t>(config_.samples) * m, 0.0);
  sample_version_.assign(static_cast<std::size_t>(config_.samples) * m, 0);
  if (!initial_energy.empty()) {
    for (int s = 0; s < config_.samples; ++s) {
      for (std::size_t j = 0; j < m; ++j) {
        energy_[static_cast<std::size_t>(s) * m + j] = initial_energy[j];
      }
    }
  }
}

int MarginalEngine::panel_color(std::uint64_t seed, int sample, model::ChargerIndex i,
                                model::SlotIndex k, int colors) {
  if (colors <= 1) return 0;
  std::uint64_t state = seed ^ 0xa02bdbf7bb3c0a7ULL;
  state ^= static_cast<std::uint64_t>(sample) * 0x9e3779b97f4a7c15ULL;
  state ^= (static_cast<std::uint64_t>(static_cast<std::uint32_t>(i)) << 32) |
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(k));
  const std::uint64_t hashed = util::splitmix64(state);
  return static_cast<int>(hashed % static_cast<std::uint64_t>(colors));
}

int MarginalEngine::final_color(std::uint64_t seed, model::ChargerIndex i,
                                model::SlotIndex k, int colors) {
  if (colors <= 1) return 0;
  // Different salt than panel_color so the executed coloring is independent
  // of the estimation panel.
  std::uint64_t state = seed ^ 0x5851f42d4c957f2dULL;
  state ^= (static_cast<std::uint64_t>(static_cast<std::uint32_t>(i)) << 32) |
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(k));
  const std::uint64_t hashed = util::splitmix64(state);
  return static_cast<int>(hashed % static_cast<std::uint64_t>(colors));
}

double MarginalEngine::gain_in_sample(int s, const kernels::RowView& rows) const {
  const auto m = static_cast<std::size_t>(net_->task_count());
  const double* energy = energy_.data() + static_cast<std::size_t>(s) * m;
  row_term_count_.fetch_add(rows.size(), std::memory_order_relaxed);
  // Compute-wide / reduce-in-order kernel; bit-identical to the scalar
  // row-order fold (see core/kernels.hpp).
  return kernels::row_term_sum(table_, energy, rows);
}

double MarginalEngine::marginal(model::ChargerIndex i, model::SlotIndex k,
                                const kernels::RowView& rows, int c) const {
  marginal_count_.fetch_add(1, std::memory_order_relaxed);
  double total = 0.0;
  for (int s = 0; s < config_.samples; ++s) {
    if (panel_color(config_.seed, s, i, k, config_.colors) != c) continue;
    total += gain_in_sample(s, rows);
  }
  return total / static_cast<double>(config_.samples);
}

void MarginalEngine::partition_marginals(const PolicyPartition& partition, int c,
                                         std::span<const int> sample_colors,
                                         double* out) const {
  const std::size_t count = partition.policies.size();
  const std::size_t rows = partition.flat_tasks.size();
  marginal_count_.fetch_add(count, std::memory_order_relaxed);
  for (std::size_t q = 0; q < count; ++q) out[q] = 0.0;
  const auto m = static_cast<std::size_t>(net_->task_count());
  // Resolve the matching panel samples, then price the partition's
  // deduplicated (task, delta) columns for all of them in one panel sweep.
  // Scratch is thread_local rather than a member: the engine's const oracle
  // surface is documented concurrency-safe (the parallel panel builds rely
  // on it).
  thread_local std::vector<int> matching;
  matching.clear();
  for (int s = 0; s < config_.samples; ++s) {
    if (sample_colors[static_cast<std::size_t>(s)] == c) matching.push_back(s);
  }
  if (!matching.empty()) {
    // Counter semantics match per-policy marginal() calls, which price every
    // flat row once per matching sample — the column dedup only removes
    // redundant arithmetic, not evaluations.
    row_term_count_.fetch_add(static_cast<std::uint64_t>(rows) * matching.size(),
                              std::memory_order_relaxed);
    const std::size_t cols = partition.col_task.size();
    const kernels::RowView column_rows{partition.col_task, partition.col_delta,
                                       partition.col_weight, partition.col_required};
    thread_local std::vector<double> col_terms;
    col_terms.resize(matching.size() * cols);
    kernels::row_terms_panel(table_, energy_.data(), m, matching, column_rows,
                             col_terms.data());
    // Segmented gather-fold: policy q's inner sum visits its rows in row
    // order (each row's term read through the column map — bit-identical,
    // since rows sharing a column share their inputs), and out[q]
    // accumulates inners in ascending sample order — exactly the
    // marginal()/gain_in_sample() accumulation trajectory per policy.
    const std::int32_t* offsets = partition.row_offsets.data();
    const std::int32_t* col_of = partition.flat_col.data();
    for (std::size_t i = 0; i < matching.size(); ++i) {
      const double* terms = col_terms.data() + i * cols;
      for (std::size_t q = 0; q < count; ++q) {
        double inner = 0.0;
        for (std::int32_t t = offsets[q]; t < offsets[q + 1]; ++t) {
          inner += terms[static_cast<std::size_t>(col_of[t])];
        }
        out[q] += inner;
      }
    }
  }
  for (std::size_t q = 0; q < count; ++q) {
    out[q] /= static_cast<double>(config_.samples);
  }
}

void MarginalEngine::commit(model::ChargerIndex i, model::SlotIndex k,
                            std::span<const model::TaskIndex> tasks,
                            std::span<const double> slot_energy, int c) {
  const auto m = static_cast<std::size_t>(net_->task_count());
  bool applied = false;
  for (int s = 0; s < config_.samples; ++s) {
    if (panel_color(config_.seed, s, i, k, config_.colors) != c) continue;
    double* energy = energy_.data() + static_cast<std::size_t>(s) * m;
    std::uint64_t* versions = sample_version_.data() + static_cast<std::size_t>(s) * m;
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      const auto j = static_cast<std::size_t>(tasks[t]);
      const double before = energy[j];
      const double after = before + slot_energy[t];
      // Only rows whose *utility* moved in this sample de-certify cached
      // marginals. Utility shapes are concave and non-decreasing, so
      // u(before) == u(after) with before < after means u is flat on
      // [before, inf): every other policy's term for that (task, sample) —
      // evaluated at an energy >= before — is provably unchanged, and stays
      // unchanged for the rest of the run. In practice this means commits
      // into saturated tasks dirty nothing.
      if (table_.weighted_utility(tasks[t], after) !=
          table_.weighted_utility(tasks[t], before)) {
        ++versions[j];
      }
      energy[j] = after;
    }
    applied = true;
  }
  if (applied) ++commit_count_;
}

double MarginalEngine::row_term(int s, model::TaskIndex j, double delta) const {
  row_term_count_.fetch_add(1, std::memory_order_relaxed);
  const auto m = static_cast<std::size_t>(net_->task_count());
  const double before =
      energy_[static_cast<std::size_t>(s) * m + static_cast<std::size_t>(j)];
  return table_.weighted_utility(j, before + delta) - table_.weighted_utility(j, before);
}

double MarginalEngine::expected_value() const {
  const auto m = static_cast<std::size_t>(net_->task_count());
  double total = 0.0;
  for (int s = 0; s < config_.samples; ++s) {
    const double* energy = energy_.data() + static_cast<std::size_t>(s) * m;
    for (std::size_t j = 0; j < m; ++j) {
      total += table_.weighted_utility(static_cast<model::TaskIndex>(j), energy[j]);
    }
  }
  return total / static_cast<double>(config_.samples);
}

}  // namespace haste::core
