// Re-plan cadence control for the predictive online scheduler.
//
// The controller is a small state machine over a single integer trust level
// L in [0, max_level]:
//
//   L = 0  — reactive: every event re-plans immediately (the paper's loop).
//   L > 0  — adaptive: arrivals are deferred (batched or skipped) until a
//            pressure rule fires — the non-hot backlog reaches
//            batch_tasks * L, or batch_slots * L slots have passed since the
//            last re-plan. Larger L = longer leash.
//
// Transitions:
//   - after a re-plan whose predictions held, L escalates by one (relax
//     cadence) up to max_level;
//   - a prediction miss resets L to 0 immediately. Misses are (a) rate
//     surprise — a batch much larger than the learned rates predicted for
//     the elapsed window, (b) utility shortfall — the negotiated per-task
//     value dropping well below its running average, (c) any charger
//     failure. The miss re-plan happens *now*, not at the next cadence
//     boundary.
//
// max_level = 0 degenerates to the reactive baseline: every decision is
// kReplanNow and no pending set ever forms.
#pragma once

#include <cstdint>

#include "model/task.hpp"
#include "predict/arrival.hpp"

namespace haste::predict {

/// Knobs of the predictor subsystem, threaded through dist::OnlineConfig.
/// `enabled = false` (the default) keeps the online driver on its reactive
/// path, bit-identical to a build without the predictor.
struct PredictorConfig {
  bool enabled = false;
  int grid = 8;                  ///< arrival-model lattice side (G x G cells)
  double discount = 0.9;         ///< per-slot EWMA retention (1 = no decay)
  double hot_rate = 0.5;         ///< cell rate (arrivals/slot) declared hot
  double min_confidence = 4.0;   ///< effective slots before trusting a cell
  double surprise_factor = 3.0;  ///< batch > factor * (expected + 1) = miss
  int max_level = 4;             ///< cadence trust ceiling (0 = reactive)
  int batch_slots = 4;           ///< per level: slots between forced re-plans
  int batch_tasks = 8;           ///< per level: non-hot backlog forcing re-plan
  double shortfall_factor = 0.5; ///< per-task value below factor * EWMA = miss
};

/// What to do with one arrival event.
enum class CadenceAction {
  kReplanNow,  ///< negotiate immediately (flush any pending tasks first)
  kBatch,      ///< defer; the batch adds pressure toward the next re-plan
  kSkip,       ///< defer; fully predicted, no added pressure
};

/// The trust-level state machine. Pure bookkeeping — the arrival model makes
/// the predictions, the controller only converts them into decisions.
class CadenceController {
 public:
  explicit CadenceController(const PredictorConfig& config) : config_(config) {}

  /// Decides the fate of an arrival batch summarized by `obs`, given the
  /// current non-hot backlog (pressure) and the event slot.
  CadenceAction decide(model::SlotIndex slot, const ArrivalObservation& obs);

  /// A re-plan ran at `slot`; `held` reports whether its predictions held
  /// (no utility shortfall). Escalates or resets the level accordingly and
  /// clears the pressure window.
  void on_replan(model::SlotIndex slot, bool held);

  /// Unpredicted disruption (charger failure): reset to reactive.
  void escalate() { level_ = 0; }

  /// Folds `count` deferred non-hot tasks into the pressure backlog.
  void add_pressure(std::uint64_t count) { pressure_ += count; }

  int level() const { return level_; }
  std::uint64_t pressure() const { return pressure_; }

 private:
  PredictorConfig config_;
  int level_ = 0;
  std::uint64_t pressure_ = 0;          ///< deferred non-hot tasks since last re-plan
  model::SlotIndex last_replan_slot_ = 0;
  bool replanned_once_ = false;
};

}  // namespace haste::predict
