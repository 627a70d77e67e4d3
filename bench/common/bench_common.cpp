#include "bench_common.hpp"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "util/csv.hpp"

namespace haste::bench {

BenchContext BenchContext::from_args(int argc, const char* const* argv, int quick_trials,
                                     int full_trials) {
  const util::Flags flags = util::Flags::parse(argc, argv);
  static constexpr std::string_view kFlags[] = {"full", "trials", "seed", "csv"};
  if (flags.reject_unknown(std::filesystem::path(argv[0]).filename().string(), kFlags)) {
    std::exit(2);
  }
  BenchContext context;
  context.full = flags.get_bool("full", false);
  context.trials = static_cast<int>(
      flags.get_int("trials", context.full ? full_trials : quick_trials));
  if (context.trials < 1) throw std::invalid_argument("--trials must be >= 1");
  context.seed = static_cast<std::uint64_t>(flags.get_int("seed", 2018));
  context.csv_path = flags.get("csv");
  return context;
}

void print_banner(const std::string& figure, const std::string& description,
                  const BenchContext& context) {
  std::cout << "=== " << figure << ": " << description << " ===\n"
            << "mode=" << (context.full ? "full" : "quick")
            << " trials=" << context.trials << " seed=" << context.seed << "\n";
}

void report_sweep(const BenchContext& context, const std::string& x_label,
                  const sim::SweepSeries& series,
                  const std::vector<std::string>& series_order) {
  // Error bars (95% CI half-widths) ride along when the sweep recorded them:
  // the table shows mean±ci, the CSV grows one "<label> ci95" column per
  // series so plots can draw the paper's error bars directly.
  const bool with_ci = !series.ci95.empty();
  std::vector<std::string> headers = {x_label};
  headers.insert(headers.end(), series_order.begin(), series_order.end());
  util::Table table(headers);
  for (std::size_t i = 0; i < series.xs.size(); ++i) {
    std::vector<std::string> row = {util::format_fixed(series.xs[i], 2)};
    for (const std::string& label : series_order) {
      std::string cell = util::format_fixed(series.series.at(label)[i], 4);
      if (with_ci) {
        // ASCII "+-" keeps the column width math exact (Table counts bytes).
        cell += "+-" + util::format_fixed(series.ci95.at(label)[i], 4);
      }
      row.push_back(std::move(cell));
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  std::cout.flush();

  if (!context.csv_path.empty()) {
    std::ofstream out(context.csv_path, std::ios::app);
    util::CsvWriter writer(out);
    std::vector<std::string> csv_headers = headers;
    if (with_ci) {
      for (const std::string& label : series_order) {
        csv_headers.push_back(label + " ci95");
      }
    }
    writer.header(csv_headers);
    for (std::size_t i = 0; i < series.xs.size(); ++i) {
      std::vector<double> row = {series.xs[i]};
      for (const std::string& label : series_order) {
        row.push_back(series.series.at(label)[i]);
      }
      if (with_ci) {
        for (const std::string& label : series_order) {
          row.push_back(series.ci95.at(label)[i]);
        }
      }
      writer.row(row);
    }
  }
}

void report_table(const BenchContext& context, util::Table& table,
                  const std::vector<std::string>& csv_header,
                  const std::vector<std::vector<std::string>>& csv_rows) {
  table.print(std::cout);
  std::cout.flush();
  if (!context.csv_path.empty()) {
    std::ofstream out(context.csv_path, std::ios::app);
    util::CsvWriter writer(out);
    writer.header(csv_header);
    for (const auto& row : csv_rows) writer.row(row);
  }
}

void report_testbed(const BenchContext& context, const model::Network& net,
                    bool online) {
  struct Entry {
    std::string label;
    sim::Algorithm algorithm;
  };
  const std::vector<Entry> entries = {
      {"HASTE", online ? sim::Algorithm::kOnlineHaste : sim::Algorithm::kOfflineHaste},
      {"GreedyUtility", online ? sim::Algorithm::kOnlineGreedyUtility
                               : sim::Algorithm::kOfflineGreedyUtility},
      {"GreedyCover", online ? sim::Algorithm::kOnlineGreedyCover
                             : sim::Algorithm::kOfflineGreedyCover},
  };

  sim::AlgoParams params;
  params.colors = 4;
  params.samples = 16;
  params.seed = context.seed;

  std::vector<std::vector<double>> per_task;
  std::vector<double> totals;
  for (const Entry& entry : entries) {
    const sim::RunMetrics metrics = sim::run_algorithm(net, entry.algorithm, params);
    per_task.push_back(metrics.task_utility);
    totals.push_back(metrics.weighted_utility);
  }

  std::vector<std::string> headers = {"task"};
  for (const Entry& entry : entries) headers.push_back(entry.label);
  util::Table table(headers);
  std::vector<std::vector<std::string>> csv_rows;
  for (std::size_t j = 0; j < per_task[0].size(); ++j) {
    std::vector<double> row;
    for (std::size_t a = 0; a < entries.size(); ++a) row.push_back(per_task[a][j]);
    table.add_row(std::to_string(j + 1), row);
    std::vector<std::string> csv_row = {std::to_string(j + 1)};
    for (double v : row) csv_row.push_back(util::format_double(v));
    csv_rows.push_back(csv_row);
  }
  std::vector<double> total_row;
  for (double t : totals) total_row.push_back(t);
  table.add_row("overall", total_row);
  report_table(context, table, headers, csv_rows);

  for (std::size_t a = 1; a < entries.size(); ++a) {
    double max_gain = 0.0;
    for (std::size_t j = 0; j < per_task[0].size(); ++j) {
      if (per_task[a][j] > 0.0) {
        max_gain =
            std::max(max_gain, 100.0 * (per_task[0][j] - per_task[a][j]) / per_task[a][j]);
      }
    }
    const double avg_gain =
        totals[a] > 0.0 ? 100.0 * (totals[0] - totals[a]) / totals[a] : 0.0;
    std::cout << "HASTE vs " << entries[a].label << ": +"
              << util::format_fixed(avg_gain, 2) << "% overall, +"
              << util::format_fixed(max_gain, 2) << "% at most per task\n";
  }
}

void report_improvements(const sim::SweepSeries& series, const std::string& primary,
                         const std::vector<std::string>& baselines) {
  const std::vector<double>& main_series = series.series.at(primary);
  for (const std::string& baseline : baselines) {
    const std::vector<double>& other = series.series.at(baseline);
    double sum = 0.0;
    double best = 0.0;
    std::size_t count = 0;
    for (std::size_t i = 0; i < main_series.size(); ++i) {
      if (other[i] <= 0.0) continue;
      const double gain = 100.0 * (main_series[i] - other[i]) / other[i];
      sum += gain;
      best = std::max(best, gain);
      ++count;
    }
    if (count == 0) continue;
    std::cout << primary << " vs " << baseline << ": +"
              << util::format_fixed(sum / static_cast<double>(count), 2)
              << "% on average, +" << util::format_fixed(best, 2) << "% at most\n";
  }
}

std::vector<std::string> labels_of(const std::vector<sim::Variant>& variants) {
  std::vector<std::string> labels;
  labels.reserve(variants.size());
  for (const sim::Variant& v : variants) labels.push_back(v.label);
  return labels;
}

std::vector<double> angle_sweep_degrees(bool full) {
  if (full) return {30, 60, 90, 120, 150, 180, 210, 240, 270, 300, 330, 360};
  return {30, 60, 120, 180, 240, 300, 360};
}

std::vector<double> rho_sweep(bool full) {
  if (full) return {0.0, 1.0 / 12, 2.0 / 12, 3.0 / 12, 4.0 / 12, 6.0 / 12, 8.0 / 12, 10.0 / 12, 1.0};
  return {0.0, 1.0 / 12, 0.25, 0.5, 1.0};
}

}  // namespace haste::bench
