// Shared scaffolding for the figure-reproduction benches.
//
// Every bench accepts:
//   --trials N    Monte-Carlo topologies per data point (default: quick)
//   --full        paper-scale settings (100 trials, full sweeps)
//   --seed S      base RNG seed (default 2018)
//   --csv PATH    additionally dump the series as CSV
//
// and no other flag: a typo exits 2 with a one-line error instead of
// silently running the defaults.
//
// Quick mode keeps every binary within tens of seconds on a laptop; --full
// reproduces the paper's averaging (100 random topologies per point).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/sweep.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace haste::bench {

/// Parsed common options.
struct BenchContext {
  int trials = 3;
  std::uint64_t seed = 2018;
  bool full = false;
  std::string csv_path;

  /// Parses argv; `quick_trials`/`full_trials` are the defaults for the two
  /// modes (overridable with --trials).
  static BenchContext from_args(int argc, const char* const* argv, int quick_trials,
                                int full_trials = 100);
};

/// Prints a header line naming the figure being reproduced.
void print_banner(const std::string& figure, const std::string& description,
                  const BenchContext& context);

/// Prints a sweep as an aligned table (x column + one column per series, in
/// the given order) and optionally appends to the CSV at context.csv_path.
void report_sweep(const BenchContext& context, const std::string& x_label,
                  const sim::SweepSeries& series,
                  const std::vector<std::string>& series_order);

/// Prints a generic table and optionally writes it as CSV.
void report_table(const BenchContext& context, util::Table& table,
                  const std::vector<std::string>& csv_header,
                  const std::vector<std::vector<std::string>>& csv_rows);

/// Prints the paper-style summary: average and maximum percentage
/// improvement of `primary` over each series in `baselines` across the
/// sweep (e.g. "HASTE outperforms GreedyUtility by 2.67% on average").
void report_improvements(const sim::SweepSeries& series, const std::string& primary,
                         const std::vector<std::string>& baselines);

/// Series labels of a variant list, in order.
std::vector<std::string> labels_of(const std::vector<sim::Variant>& variants);

/// Runs the three compared algorithms (HASTE with C=4, GreedyUtility,
/// GreedyCover) on a fixed testbed topology, in the offline or online
/// setting, and prints the per-task charging utilities plus the paper-style
/// improvement summary (Figs. 21/22/24/25).
void report_testbed(const BenchContext& context, const model::Network& net,
                    bool online);

/// The sweep x-values used by the angle figures (degrees 30..360).
std::vector<double> angle_sweep_degrees(bool full);

/// The rho sweep (0..1).
std::vector<double> rho_sweep(bool full);

}  // namespace haste::bench
