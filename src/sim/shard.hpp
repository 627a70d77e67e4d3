// Process-level sharding of the Monte-Carlo harness.
//
// run_trials / sweep parallelize trials with threads inside one process; this
// layer partitions the same (trial, x-point) work into deterministic shards
// and farms them out to crash-isolated worker processes (the `--worker`
// re-entrant mode of tools/haste_shard, or any binary speaking the same
// line protocol). Because trial t always derives its RNG from
// Rng::stream_seed(base_seed, t) — never from its position in a shard — the
// merged output is bit-identical to the in-process path, and a shard lost to
// a crashing, hanging, or garbage-emitting worker can be requeued onto a
// surviving worker without perturbing any other trial.
//
// Wire protocol (one JSON object per line, newline-terminated):
//   driver -> worker: shard_spec_to_json(spec), plus optional "inject"
//                     (fault injection for tests, see below) — EOF on the
//                     request stream tells the worker to exit
//   worker -> driver: {"shard": id, "metrics": {label: [RunMetrics...]}}
// 64-bit seeds and counters travel as decimal strings (JSON numbers are
// doubles and would silently round above 2^53); every double is serialized
// with shortest-round-trip precision, so the round trip is bit-exact.
//
// The protocol is transport-agnostic: the same lines flow over a fork+pipe
// worker (`--worker`, stdin/stdout) or a TCP connection (`--connect`,
// shard_worker_connect). The driver pool mixes both transports freely —
// every link gets the same bounded requeue, timeout handling (kill the
// process / close the connection), and manifest telemetry.
//
// Inject modes ("crash" | "garbage" | "hang" | "kill-self" | "partial" |
// "reset" | "slow", first attempt only) simulate worker failure for tests:
// exit mid-shard, emit non-JSON, never answer, die by SIGKILL, die after
// half a result line, reset the connection instead of answering, or drip
// the result out slower than any sane shard timeout.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/sweep.hpp"
#include "util/json.hpp"

namespace haste::sim {

/// Exact JSON round-trip for one run's metrics.
util::Json metrics_to_json(const RunMetrics& metrics);
RunMetrics metrics_from_json(const util::Json& json);

/// Exact JSON round-trip for a scenario configuration (angles stay in
/// radians — no lossy degree conversion — so regenerated scenarios are
/// bit-identical).
util::Json scenario_config_to_json(const ScenarioConfig& config);
ScenarioConfig scenario_config_from_json(const util::Json& json);

/// Exact JSON round-trip for an algorithm variant.
util::Json variant_to_json(const Variant& variant);
Variant variant_from_json(const util::Json& json);

/// One unit of crash-isolated work: a contiguous trial range of one x-point.
struct ShardSpec {
  int shard_id = 0;
  int x_index = 0;      ///< position in the sweep (0 for a single panel)
  int trial_begin = 0;  ///< inclusive
  int trial_end = 0;    ///< exclusive
  std::uint64_t base_seed = 0;
  ScenarioConfig config;
  std::vector<Variant> variants;
};

util::Json shard_spec_to_json(const ShardSpec& spec);
ShardSpec shard_spec_from_json(const util::Json& json);

/// Splits `trials` of one x-point into shards of at most `trials_per_shard`
/// trials, ids starting at `first_shard_id`.
std::vector<ShardSpec> plan_shards(const ScenarioConfig& config,
                                   const std::vector<Variant>& variants, int trials,
                                   std::uint64_t base_seed, int trials_per_shard,
                                   int x_index = 0, int first_shard_id = 0);

/// Computes one shard in-process — the exact per-trial code path of
/// run_trials, so shard placement cannot perturb results.
std::map<std::string, std::vector<RunMetrics>> run_shard(const ShardSpec& spec);

/// Worker REPL: reads shard requests from `in` line by line, writes result
/// lines to `out`. Returns the process exit code (0 on clean EOF, 3 on a
/// malformed request).
int shard_worker_main(std::istream& in, std::ostream& out);

/// TCP worker: connects to a driver at `address` ("host:port") and serves
/// shard requests over the socket until the driver half-closes or drops the
/// connection. When `auth_token` is non-empty it is sent as the first line —
/// the per-run shared secret a token-requiring driver expects before any
/// shard flows. Returns the process exit code (0 on clean close, 3 on a
/// malformed request, 4 when the connection cannot be established).
int shard_worker_connect(const std::string& address, const std::string& auth_token = "");

/// Knobs of the process-sharded runner. Two transports can feed the same
/// worker pool: fork+pipe subprocesses (`worker_argv` x `workers`) and TCP
/// connections accepted on `listen_address` (`tcp_workers` of them, either
/// spawned locally via `tcp_spawn_argv` or started by hand on other hosts
/// with `--connect`). At least one transport must be configured.
struct ShardOptions {
  /// Command used to exec each local worker, e.g. {"/proc/self/exe",
  /// "--worker"}. Empty disables the subprocess transport.
  std::vector<std::string> worker_argv;
  int workers = 2;           ///< concurrent local worker processes
  int trials_per_shard = 0;  ///< <= 0: auto (~4 shards per worker)
  double shard_timeout_seconds = 300.0;  ///< kill/disconnect + requeue past this
  int max_attempts = 3;      ///< per-shard attempt bound before giving up
  std::string manifest_path; ///< per-shard telemetry JSON; "" = none
  /// Fault injection for tests: shard id -> directive sent with that
  /// shard's FIRST attempt only (see the inject modes above).
  std::map<int, std::string> inject_first_attempt;

  /// TCP transport: non-empty enables it — listen on "host:port" (port 0 =
  /// ephemeral) and accept worker connections into the pool.
  std::string listen_address;
  int tcp_workers = 0;  ///< TCP worker connections to admit into the pool
  /// Loopback convenience (and the ctest story): spawn this command with the
  /// actually-bound listen address appended once per TCP worker slot, e.g.
  /// {"haste_shard", "--connect"}. The first shard is dispatched once every
  /// initial spawn has dialed in (admitted or rejected) or exited, or after
  /// connect_wait_seconds. Empty = wait for externally started workers to
  /// dial in, dispatching as soon as the pool is non-empty.
  std::vector<std::string> tcp_spawn_argv;
  /// Give up if the pool stays empty this long — covers remote workers that
  /// never connect (a non-empty pool never waits on this).
  double connect_wait_seconds = 30.0;

  /// Per-run shared secret for the TCP transport. When non-empty, every
  /// accepted connection must present exactly this token as its first line
  /// (see shard_worker_connect / `--token` / HASTE_SHARD_TOKEN); a mismatch
  /// or a silent connection is closed before any shard is assigned and
  /// counted under the `shard.auth_reject` metric. Empty = accept anyone
  /// (trusted-network mode, the pre-token behavior).
  std::string auth_token;

  /// Bounds on per-worker buffering, both enforced by killing the offending
  /// link (the shard requeues like any other worker failure) and bumping the
  /// `net.overflow` counter, which the manifest surfaces alongside the
  /// limits. 0 = unbounded. `max_line_bytes` caps a single result line (a
  /// garbage-spewing worker that never sends '\n' otherwise balloons driver
  /// memory); `max_outbox_bytes` caps unsent request bytes queued toward a
  /// stalled TCP worker.
  std::size_t max_line_bytes = 64ull << 20;
  std::size_t max_outbox_bytes = 64ull << 20;

  /// Work-stealing shard sizing. When assigning a never-attempted shard, the
  /// runner may split it: it carves off a chunk sized to the remaining
  /// pending work (~remaining / (2 * pool capacity), never below
  /// `min_steal_trials`) and requeues the rest as a new shard — so late in a
  /// run wide shards shrink and idle workers steal from a slow host instead
  /// of waiting out its long pole. Merged results are bit-identical either
  /// way: a trial's RNG derives from its global index, never from shard
  /// boundaries. Retried shards are never split (their attempt history and
  /// fault-injection directives stay attached to one id). The manifest
  /// reports `planned_shards` / `final_shards` / `splits`, and each
  /// split-off entry carries the id it was carved from (`split_from`).
  bool adaptive_shards = true;
  /// Smallest chunk adaptive splitting may carve off (>= 1). The default of
  /// 2 keeps explicitly planned small shards (trials_per_shard <= 2) exactly
  /// as planned.
  int min_steal_trials = 2;

  /// Ask workers for observability payloads: every shard request carries
  /// "obs": true, and workers attach their cumulative metrics snapshot plus
  /// drained trace events to each response. The driver merges the per-worker
  /// snapshots into the manifest ("worker_metrics") and `worker_metrics_out`,
  /// and forwards worker trace events into its own tracer when one is active.
  bool collect_obs = false;
  /// When non-null, receives the merged cross-worker metrics snapshot after
  /// the run (also on the failure path, with whatever was collected).
  obs::MetricsSnapshot* worker_metrics_out = nullptr;
};

/// Merges per-worker cumulative metrics snapshots in ascending worker-id
/// order (the pool admission serial). Counters and histograms are
/// commutative under merge, but gauges are last-write-wins — merging in a
/// fixed worker order is what makes manifest gauge values deterministic
/// instead of dependent on response arrival order.
obs::MetricsSnapshot merge_worker_snapshots(
    const std::map<long, obs::MetricsSnapshot>& by_worker);

/// Process-sharded equivalent of run_trials: same signature semantics, and
/// the merged TrialResults is bit-identical to the in-process path. Throws
/// std::runtime_error when a shard exhausts max_attempts or no worker can be
/// spawned (the manifest, if requested, is still written).
TrialResults run_trials_sharded(const ScenarioConfig& config,
                                const std::vector<Variant>& variants, int trials,
                                std::uint64_t base_seed, const ShardOptions& options);

/// Process-sharded equivalent of sweep(): shards span all (x, trial) cells
/// and run through one worker pool, so a long x-point cannot serialize the
/// sweep. Means and 95% CI half-widths match sweep() bit-for-bit.
SweepSeries sweep_sharded(const std::vector<double>& xs,
                          const std::vector<ScenarioConfig>& configs,
                          const std::vector<Variant>& variants, int trials,
                          std::uint64_t base_seed, const ShardOptions& options);

}  // namespace haste::sim
