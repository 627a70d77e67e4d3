#include "dist/node.hpp"

#include <algorithm>
#include <bit>

namespace haste::dist {

namespace {

constexpr double kTieSlack = 1e-12;

}  // namespace

ChargerNode::ChargerNode(const model::Network& net, model::ChargerIndex id,
                         core::MarginalEngine::Config engine_config)
    : net_(&net), id_(id), engine_config_(engine_config) {
  previous_orientation_.assign(static_cast<std::size_t>(std::max(1, engine_config.colors)),
                               std::nullopt);
}

Message ChargerNode::begin_plan(const std::vector<model::TaskIndex>& known_tasks,
                                std::span<const double> initial_energy) {
  // Dominant sets are a pure function of (net, id, known_tasks); consecutive
  // re-plans of a reused node usually extend `known_tasks` (recompute) but
  // failure-triggered re-plans repeat it verbatim (hit).
  if (!dominant_cached_ || cached_known_ != known_tasks) {
    dominant_ = core::extract_dominant_sets(*net_, id_, known_tasks);
    cached_known_ = known_tasks;
    dominant_cached_ = true;
  }
  engine_.emplace(*net_, engine_config_, initial_energy);
  selections_.clear();
  neighbor_tasks_.clear();
  std::fill(previous_orientation_.begin(), previous_orientation_.end(), std::nullopt);

  // HELLO: announce which known tasks this charger can cover, with the
  // per-slot energy it would deliver (lets neighbors predict participation).
  Message hello;
  hello.sender = id_;
  hello.command = Command::kHello;
  for (model::TaskIndex j : known_tasks) {
    const double p = net_->potential_power(id_, j);
    if (p > 0.0) {
      hello.policy.tasks.push_back(j);
      hello.policy.slot_energy.push_back(p * net_->time().slot_seconds);
    }
  }

  // Plan-level column cache: one column per coverable task, shared by every
  // policy of every stage (the per-slot energy is orientation- and
  // slot-independent). All samples share the initial energies, so one
  // row_term per column is exact for the whole panel (replication), and
  // version 0 matches the engine's untouched counters.
  plan_col_task_.clear();
  plan_col_delta_.clear();
  plan_col_of_.assign(static_cast<std::size_t>(net_->task_count()), -1);
  for (std::size_t t = 0; t < hello.policy.tasks.size(); ++t) {
    plan_col_of_[static_cast<std::size_t>(hello.policy.tasks[t])] =
        static_cast<std::ptrdiff_t>(plan_col_task_.size());
    plan_col_task_.push_back(hello.policy.tasks[t]);
    plan_col_delta_.push_back(hello.policy.slot_energy[t]);
  }
  const auto samples = static_cast<std::size_t>(engine_->samples());
  plan_terms_.assign(plan_col_task_.size() * samples, 0.0);
  plan_versions_.assign(plan_col_task_.size() * samples, 0);
  if (term_cache_valid_.size() != static_cast<std::size_t>(net_->task_count())) {
    term_cache_base_.assign(static_cast<std::size_t>(net_->task_count()), 0);
    term_cache_term_.assign(static_cast<std::size_t>(net_->task_count()), 0.0);
    term_cache_valid_.assign(static_cast<std::size_t>(net_->task_count()), 0);
  }
  for (std::size_t col = 0; col < plan_col_task_.size(); ++col) {
    const auto j = static_cast<std::size_t>(plan_col_task_[col]);
    // row_term(0, j, delta) on a fresh engine is a pure function of the
    // task's harvested base energy (delta never changes for a column), so
    // a bitwise-equal base since the previous plan reuses the cached term
    // — the re-plan's dominant row_term cost when energies are settled.
    const double base_energy = j < initial_energy.size() ? initial_energy[j] : 0.0;
    const std::uint64_t base_bits = std::bit_cast<std::uint64_t>(base_energy);
    double term;
    if (term_cache_valid_[j] != 0 && term_cache_base_[j] == base_bits) {
      term = term_cache_term_[j];
    } else {
      term = engine_->row_term(0, plan_col_task_[col], plan_col_delta_[col]);
      term_cache_base_[j] = base_bits;
      term_cache_term_[j] = term;
      term_cache_valid_[j] = 1;
    }
    for (std::size_t s = 0; s < samples; ++s) plan_terms_[col * samples + s] = term;
  }
  return hello;
}

bool ChargerNode::begin_stage(model::SlotIndex slot, int color) {
  stage_slot_ = slot;
  stage_color_ = color;
  stage_policies_ = core::make_slot_policies(*net_, id_, dominant_, slot);
  stage_cache_.assign(stage_policies_.size(), PolicyTermCache{});
  stage_samples_.clear();
  for (int s = 0; s < engine_->samples(); ++s) {
    if (core::MarginalEngine::panel_color(engine_config_.seed, s, id_, slot,
                                          engine_->colors()) == color) {
      stage_samples_.push_back(s);
    }
  }
  // Row -> plan-column map for this stage's policies. Dominant-set tasks are
  // always in the HELLO coverable set, but register stragglers defensively
  // with never-priced stamps (engine versions can be anything by now).
  stage_policy_col_.clear();
  stage_policy_row0_.assign(stage_policies_.size(), 0);
  const auto samples = static_cast<std::size_t>(engine_->samples());
  for (std::size_t q = 0; q < stage_policies_.size(); ++q) {
    stage_policy_row0_[q] = stage_policy_col_.size();
    const core::Policy& policy = stage_policies_[q];
    for (std::size_t t = 0; t < policy.tasks.size(); ++t) {
      const model::TaskIndex task = policy.tasks[t];
      const double delta = policy.slot_energy[t];
      std::ptrdiff_t col = plan_col_of_[static_cast<std::size_t>(task)];
      if (col >= 0 && plan_col_delta_[static_cast<std::size_t>(col)] != delta) {
        // Tardy rows carry a deadline-discounted slot_energy that deviates
        // from the HELLO column's base delta; a column's cached terms are
        // only reusable at the delta they were priced with, so mismatched
        // rows get overflow columns keyed (task, delta). Linear scan: only
        // tardy rows reach here, and each tardy (task, slot) pair
        // contributes at most one distinct delta per plan.
        col = -1;
        for (std::size_t c = 0; c < plan_col_task_.size(); ++c) {
          if (plan_col_task_[c] == task && plan_col_delta_[c] == delta) {
            col = static_cast<std::ptrdiff_t>(c);
            break;
          }
        }
      }
      if (col < 0) {
        col = static_cast<std::ptrdiff_t>(plan_col_task_.size());
        if (plan_col_of_[static_cast<std::size_t>(task)] < 0) {
          plan_col_of_[static_cast<std::size_t>(task)] = col;
        }
        plan_col_task_.push_back(task);
        plan_col_delta_.push_back(delta);
        plan_terms_.resize(plan_terms_.size() + samples, 0.0);
        plan_versions_.resize(plan_versions_.size() + samples, ~std::uint64_t{0});
      }
      stage_policy_col_.push_back(static_cast<std::size_t>(col));
    }
  }
  neighbor_values_.clear();
  neighbor_decided_.clear();
  if (stage_policies_.empty()) {
    decided_ = true;
    best_policy_ = -1;
    best_marginal_ = 0.0;
    return false;
  }
  decided_ = false;
  recompute_best();
  return true;
}

double ChargerNode::refresh_policy(std::size_t q) {
  const core::Policy& policy = stage_policies_[q];
  const std::size_t rows = policy.tasks.size();
  const auto samples = static_cast<std::size_t>(engine_->samples());
  const std::size_t* row_col = stage_policy_col_.data() + stage_policy_row0_[q];
  double total = 0.0;
  for (std::size_t si = 0; si < stage_samples_.size(); ++si) {
    const int s = stage_samples_[si];
    double inner = 0.0;
    for (std::size_t t = 0; t < rows; ++t) {
      const std::size_t idx = row_col[t] * samples + static_cast<std::size_t>(s);
      const std::uint64_t version = engine_->sample_version(s, policy.tasks[t]);
      if (plan_versions_[idx] != version) {
        plan_terms_[idx] = engine_->row_term(s, policy.tasks[t], policy.slot_energy[t]);
        plan_versions_[idx] = version;
      }
      inner += plan_terms_[idx];
    }
    total += inner;
  }
  return total / static_cast<double>(engine_->samples());
}

void ChargerNode::recompute_best() {
  best_policy_ = -1;
  best_marginal_ = 0.0;
  const std::optional<double>& previous =
      previous_orientation_[static_cast<std::size_t>(stage_color_)];
  bool best_is_previous = false;
  for (std::size_t q = 0; q < stage_policies_.size(); ++q) {
    const core::Policy& policy = stage_policies_[q];
    PolicyTermCache& cache = stage_cache_[q];
    if (cache.valid) {
      // Lazy partition maxima: energies only grow and utilities are
      // concave, so the last refreshed marginal is an upper bound on the
      // current one. A policy whose bound cannot trigger either acceptance
      // branch below leaves the fold state untouched — skip it without
      // touching its rows.
      const double bound = cache.marginal;
      const bool can_alter =
          best_policy_ < 0 ? bound > 0.0
                           : bound >= best_marginal_ * (1.0 - kTieSlack) - kTieSlack;
      if (!can_alter) continue;
    }
    // Re-sum the shared column chain, re-pricing only the columns whose
    // (task, sample) version moved since they were last priced.
    const double m = refresh_policy(q);
    cache.marginal = m;
    cache.valid = true;
    const bool is_previous = previous.has_value() && policy.orientation == *previous;
    bool better = false;
    if (best_policy_ < 0) {
      better = m > 0.0;
    } else if (m > best_marginal_ * (1.0 + kTieSlack) + kTieSlack) {
      better = true;
    } else if (is_previous && !best_is_previous &&
               m >= best_marginal_ * (1.0 - kTieSlack) - kTieSlack) {
      better = true;  // tie: prefer keeping the current orientation
    }
    if (better) {
      best_policy_ = static_cast<int>(q);
      best_marginal_ = m;
      best_is_previous = is_previous;
    }
  }
}

std::optional<Message> ChargerNode::make_value_message() {
  if (decided_) return std::nullopt;
  Message msg;
  msg.sender = id_;
  msg.slot = stage_slot_;
  msg.color = stage_color_;
  msg.command = Command::kValue;
  msg.marginal = best_policy_ >= 0 ? best_marginal_ : 0.0;
  if (best_policy_ < 0) {
    // Nothing worth selecting: announce zero so neighbors stop waiting, then
    // go passive for this stage.
    decided_ = true;
  }
  return msg;
}

void ChargerNode::receive(const Message& message) {
  switch (message.command) {
    case Command::kHello: {
      neighbor_tasks_[message.sender] = message.policy.tasks;
      return;
    }
    case Command::kValue: {
      if (message.slot != stage_slot_ || message.color != stage_color_) return;
      neighbor_values_[message.sender] = message.marginal;
      if (message.marginal <= 0.0) neighbor_decided_[message.sender] = true;
      return;
    }
    case Command::kUpdate: {
      // Apply the neighbor's committed tuple to the local view and
      // re-evaluate; the stage check matters because UPDATEs always concern
      // the current stage, but be defensive.
      core::Policy policy;
      policy.orientation = message.policy.orientation;
      policy.tasks = message.policy.tasks;
      policy.slot_energy = message.policy.slot_energy;
      engine_->apply_remote_commit(message.sender, message.slot, policy, message.color);
      neighbor_decided_[message.sender] = true;
      if (!decided_ && message.slot == stage_slot_ && message.color == stage_color_) {
        recompute_best();
      }
      return;
    }
  }
}

bool ChargerNode::neighbor_participates(model::ChargerIndex j, model::SlotIndex slot) const {
  const auto it = neighbor_tasks_.find(j);
  if (it == neighbor_tasks_.end()) return false;
  // Mirror of the row-construction rule in make_slot_policies: a neighbor
  // has a stage policy iff some coverable task is active AND not dropped by
  // the deadline discount (zero tardiness factor = hard-tardy or
  // infeasible). Waiting on an `active`-only basis deadlocked the stage on
  // deadline instances — a fully-pruned neighbor never speaks, everyone
  // else kept waiting for its value, and the round cap fired.
  return std::any_of(it->second.begin(), it->second.end(), [&](model::TaskIndex t) {
    return net_->tasks()[static_cast<std::size_t>(t)].active(slot) &&
           net_->tardiness_factor(t, slot) > 0.0;
  });
}

std::optional<Message> ChargerNode::try_commit() {
  if (decided_ || best_policy_ < 0) return std::nullopt;
  for (model::ChargerIndex j : net_->neighbors(id_)) {
    if (!neighbor_participates(j, stage_slot_)) continue;
    const auto decided_it = neighbor_decided_.find(j);
    if (decided_it != neighbor_decided_.end() && decided_it->second) continue;
    const auto value_it = neighbor_values_.find(j);
    if (value_it == neighbor_values_.end()) return std::nullopt;  // not heard yet
    const double theirs = value_it->second;
    // Tie-break by id: the lower id wins equal marginals.
    if (theirs > best_marginal_ || (theirs == best_marginal_ && j < id_)) {
      return std::nullopt;
    }
  }

  // Local maximum: commit the S-C tuple.
  return commit_current();
}

std::optional<Message> ChargerNode::force_commit() {
  if (decided_) return std::nullopt;
  decided_ = true;
  if (best_policy_ < 0) return std::nullopt;
  return commit_current();
}

Message ChargerNode::commit_current() {
  const core::Policy& policy = stage_policies_[static_cast<std::size_t>(best_policy_)];
  // best_marginal_ came from an exactly-refreshed cache (recompute_best runs
  // after every engine change), so the realized gain is already known and
  // commit can skip re-evaluating it.
  engine_->commit_no_gain(id_, stage_slot_, policy.tasks, policy.slot_energy,
                          stage_color_);
  auto& per_color = selections_[stage_slot_];
  per_color.resize(static_cast<std::size_t>(engine_->colors()));
  per_color[static_cast<std::size_t>(stage_color_)] = policy;
  previous_orientation_[static_cast<std::size_t>(stage_color_)] = policy.orientation;
  decided_ = true;

  Message msg;
  msg.sender = id_;
  msg.slot = stage_slot_;
  msg.color = stage_color_;
  msg.command = Command::kUpdate;
  msg.marginal = best_marginal_;
  msg.policy.orientation = policy.orientation;
  msg.policy.tasks = policy.tasks;
  msg.policy.slot_energy = policy.slot_energy;
  return msg;
}

void ChargerNode::write_schedule(model::Schedule& schedule,
                                 model::SlotIndex first_slot) const {
  for (model::SlotIndex k = first_slot; k < schedule.horizon(); ++k) {
    schedule.clear(id_, k);
  }
  for (const auto& [slot, per_color] : selections_) {
    if (slot < first_slot) continue;
    const int c = core::MarginalEngine::final_color(engine_config_.seed, id_, slot,
                                                    engine_->colors());
    if (static_cast<std::size_t>(c) < per_color.size() &&
        per_color[static_cast<std::size_t>(c)].has_value()) {
      schedule.assign(id_, slot, per_color[static_cast<std::size_t>(c)]->orientation);
    }
  }
}

double ChargerNode::local_expected_value() const {
  return engine_.has_value() ? engine_->expected_value() : 0.0;
}

}  // namespace haste::dist
