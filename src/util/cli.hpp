// Tiny command-line flag parser shared by benches and examples.
//
// Supported syntax: `--name=value`, `--name value`, and boolean `--name`.
// reject_unknown() lets a binary refuse the flags it does not read with a
// one-line error instead of silently ignoring typos; every tool, figure
// bench and example does.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace haste::util {

/// Parsed command-line flags with typed accessors.
class Flags {
 public:
  /// Parses argv (argv[0] is skipped). Positional arguments (tokens not
  /// starting with "--") are collected separately.
  static Flags parse(int argc, const char* const* argv);

  /// True if the flag was present (with or without a value).
  bool has(const std::string& name) const;

  /// String value, or `fallback` if absent.
  std::string get(const std::string& name, const std::string& fallback = "") const;

  /// Integer value, or `fallback` if absent. Throws std::invalid_argument on
  /// a malformed number and std::out_of_range when the value does not fit in
  /// 64 bits (instead of silently clamping to INT64_MIN/MAX).
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;

  /// Floating-point value, or `fallback` if absent. Throws
  /// std::invalid_argument on a malformed number and std::out_of_range when
  /// the magnitude overflows a double (instead of clamping to +-HUGE_VAL).
  double get_double(const std::string& name, double fallback) const;

  /// Boolean: `--flag`, `--flag=true/1/yes` are true; `--flag=false/0/no`
  /// false; absent yields `fallback`.
  bool get_bool(const std::string& name, bool fallback = false) const;

  /// Positional (non-flag) arguments in order of appearance.
  const std::vector<std::string>& positional() const { return positional_; }

  /// All flag names seen (sorted), for unknown-flag checks and --help style
  /// listings.
  std::vector<std::string> names() const;

  /// When a flag outside `known` was given, prints one line
  /// "<program>: unknown flag --name ... (known: --a --b)" to stderr (the
  /// unknown names sorted) and returns true; the caller then exits with
  /// status 2 before doing work.
  bool reject_unknown(std::string_view program,
                      std::span<const std::string_view> known) const;

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace haste::util
