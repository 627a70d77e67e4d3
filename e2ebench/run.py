#!/usr/bin/env python3
"""End-to-end benchmark of the HASTE schedulers and the haste_serve daemon.

    python3 e2ebench/run.py --workload offline_paper --seed 1 --seconds 20 --trace 0

Builds the harness (e2ebench/CMakeLists.txt, Release) into .bench_build, runs
the workload's fixed operation list in a fresh process, checks every output
against e2ebench/pins.json and prints one JSON object as the last line of
stdout. --trace 0 reports the end-to-end metrics; --trace 1 re-runs the list
with bench-side spans and reports the per-layer metrics, the stage table and
trace_check's verdict on the trace. See e2ebench/README.md.

    python3 e2ebench/run.py --record-pins    # regenerate pins.json
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
import benchlib  # noqa: E402

PINS = os.path.join(HERE, "pins.json")
THREADS = "1"          # HASTE_THREADS: one core per solve, no cross-core waits
DRIVER_TIMEOUT_S = 170

LAYER_SPANS = {
    "offline_paper": ["op.offline", "io.parse", "model.network_build",
                      "core.dominant_sets", "core.build_partitions",
                      "core.schedule_offline_over", "core.evaluate"],
    "online_paper": ["op.online", "io.parse", "model.network_build",
                     "dist.replan", "dist.finish", "dist.pricing_floor"],
    "serve_mixed": ["op.serve", "io.parse", "model.network_build", "util.send_line",
                    "util.poll_readable", "util.line_feed", "util.json_parse",
                    "serve.rtt.open", "serve.rtt.arrive", "serve.rtt.fail",
                    "serve.rtt.finish", "serve.handle_line"],
}

PER_LAYER_UNITS = [
    ("io.parse_ms", "ms"), ("model.network_build_ms", "ms"),
    ("core.dominant_sets_ms", "ms"), ("core.build_partitions_ms", "ms"),
    ("core.schedule_offline_over_ms", "ms"), ("core.evaluate_ms", "ms"),
    ("core.partitions", "count"), ("core.policies", "count"),
    ("core.rows", "count"), ("core.row_evals", "count"),
    ("core.marginal_evals", "count"), ("core.partition_bytes", "bytes"),
    ("dist.replan_ms_p50", "ms"), ("dist.replan_ms_tail", "ms"),
    ("dist.finish_ms", "ms"), ("dist.pricing_floor_ms", "ms"),
    ("dist.replan_over_pricing", "ratio"), ("dist.messages", "count"),
    ("dist.deliveries", "count"), ("dist.message_bytes", "bytes"),
    ("dist.rounds", "count"), ("dist.negotiations", "count"),
    ("dist.row_evals", "count"), ("dist.us_per_delivery", "us"),
    ("serve.rtt_ms_open", "ms"), ("serve.rtt_ms_arrive", "ms"),
    ("serve.rtt_ms_fail", "ms"), ("serve.rtt_ms_finish", "ms"),
    ("serve.handle_line_ms", "ms"), ("serve.wait_ms", "ms"),
    ("serve.replan_us_mean", "us"), ("serve.request_bytes", "bytes"),
    ("serve.reply_bytes", "bytes"), ("serve.rejects", "count"),
    ("serve.errors", "count"), ("predict.hits", "count"),
    ("predict.misses", "count"), ("online.replans_skipped", "count"),
    ("pool.tasks", "count"), ("trace.coverage_frac", "frac"),
    ("trace.overhead_frac", "frac"),
]


def fail(message):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2ebench")


def build():
    """Configures (Release) and builds the harness; returns the build dir."""
    for needed in ("CMakeLists.txt", "src/CMakeLists.txt", "tools/trace_check.cpp"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("source tree incomplete: %s is missing" % needed)
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", out, "-j", str(min(4, os.cpu_count() or 1))])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as text:
                    sys.stderr.write(text.read()[-4000:])
                fail("build failed (%s)" % " ".join(cmd[:2]))
    with open(os.path.join(out, "CMakeCache.txt")) as cache:
        if "CMAKE_BUILD_TYPE:STRING=Release\n" not in cache.read():
            fail("refusing to time a build that is not Release")
    return out


def git_commit():
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_driver(out, plan, tag, seed, trace):
    """Runs one capture in its own process; returns (result, trace_path)."""
    runs = os.path.join(out, "runs")
    os.makedirs(runs, exist_ok=True)
    plan_path = os.path.join(runs, tag + ".plan.json")
    result_path = os.path.join(runs, tag + ".result.json")
    trace_path = os.path.join(runs, tag + ".trace.json")
    with open(plan_path, "w") as f:
        json.dump(plan, f)
    for stale in (result_path, trace_path):
        if os.path.exists(stale):
            os.remove(stale)
    cmd = [os.path.join(out, "haste_e2e"), "--plan", plan_path, "--out", result_path,
           "--commit", git_commit(), "--seed", str(seed)]
    if trace:
        cmd += ["--trace-out", trace_path]
    env = dict(os.environ, HASTE_THREADS=THREADS, HASTE_LOG="warn")
    env.pop("HASTE_TRACE", None)
    proc = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=DRIVER_TIMEOUT_S)
    if proc.returncode != 0:
        fail("harness exited with %d" % proc.returncode)
    with open(result_path) as f:
        return json.load(f), trace_path


def load_pins():
    if not os.path.exists(PINS):
        return {}
    with open(PINS) as f:
        return json.load(f)


def record_pins(out):
    """Runs every pool input once per workload and writes pins.json."""
    pins = {}
    for workload in benchlib.WORKLOADS:
        plan = benchlib.make_plan(workload, 0, 1)
        if workload == "serve_mixed":
            plan["ops"] = benchlib.pool_keys("paper20") + benchlib.pool_keys("bursty8")
        else:
            plan["ops"] = benchlib.pool_keys("paper50")
            if workload == "online_paper":
                plan["ops"] = plan["ops"][:benchlib.ONLINE_POOL]
        plan["warmup"] = []
        plan["setup_reps"] = 1
        result, _ = run_driver(out, plan, "pins-" + workload, 0, False)
        entries = {}
        for output in result["timed"]["outputs"]:
            if not output.get("ok"):
                fail("cannot pin failed output %s" % output["key"])
            entries[output["key"]] = {k: output[k] for k in
                                      benchlib.PINNED_FIELDS[workload]}
        pins[workload] = entries
        print("pinned %d %s outputs" % (len(entries), workload), file=sys.stderr)
    with open(PINS, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")


def per_layer(workload, result, spans):
    """The traced capture's per-layer metrics (0 where a workload never calls
    the layer)."""
    traced = result["traced"]
    values = {name: 0.0 for name, _ in PER_LAYER_UNITS}
    values.update({k: float(v) for k, v in result["layer_counts"].items()
                   if k in values})
    for name in ("io.parse", "model.network_build", "core.dominant_sets",
                 "core.build_partitions", "core.schedule_offline_over",
                 "core.evaluate", "dist.finish", "dist.pricing_floor"):
        values[name + "_ms"] = benchlib.mean_dur_ms(spans, name)
    replans = [op["ns"] / 1e6 for op in traced["ops"] if op["kind"] == "replan"]
    if replans:
        values["dist.replan_ms_p50"] = statistics.median(replans)
        values["dist.replan_ms_tail"] = benchlib.tail_percentile(replans)[1]
        mean_replan = statistics.fmean(replans)
        if values["dist.pricing_floor_ms"] > 0:
            values["dist.replan_over_pricing"] = mean_replan / values["dist.pricing_floor_ms"]
        if values["dist.deliveries"] > 0:
            values["dist.us_per_delivery"] = sum(replans) * 1e3 / values["dist.deliveries"]
    if workload == "serve_mixed":
        rtt = {(op["unit"], op["request"]): op["ns"] for op in traced["ops"]}
        for kind in ("open", "arrive", "fail", "finish"):
            samples = [op["ns"] / 1e6 for op in traced["ops"] if op["kind"] == kind]
            values["serve.rtt_ms_" + kind] = (statistics.fmean(samples)
                                              if samples else 0.0)
        handle = result["handle"]
        values["serve.handle_line_ms"] = statistics.fmean(
            h["ns"] / 1e6 for h in handle)
        waits = [(rtt[(h["unit"], h["request"])] - h["ns"]) / 1e6
                 for h in handle if (h["unit"], h["request"]) in rtt]
        values["serve.wait_ms"] = statistics.fmean(waits) if waits else 0.0
    table, coverage = benchlib.stage_table(spans)
    values["trace.coverage_frac"] = coverage
    values["trace.overhead_frac"] = traced["wall_ns"] / result["timed"]["wall_ns"] - 1.0
    return values, table


def check_trace(out, workload, trace_path):
    """trace_check must accept the trace and find every layer span."""
    checker = os.path.join(out, "trace_check")
    for name in LAYER_SPANS[workload]:
        proc = subprocess.run([checker, trace_path, "--require-name", name],
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            print("trace_check --require-name %s: %s" % (name, proc.stdout + proc.stderr),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=benchlib.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-pins", action="store_true")
    args = parser.parse_args()
    if not args.record_pins and args.workload is None:
        parser.error("--workload is required")

    out = build()
    if args.record_pins:
        record_pins(out)
        return 0

    pins = load_pins()
    plan = benchlib.make_plan(args.workload, args.seed, args.seconds)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    result, trace_path = run_driver(out, plan, tag, args.seed, args.trace == 1)

    ctx = result["context"]
    print("context: " + " ".join("%s=%s" % (k, ctx[k]) for k in sorted(ctx)))
    print("workload %s: %d ops planned, %d distinct inputs" % (
        args.workload, len(plan["ops"]), len(set(plan["ops"]))))

    metrics, notes = benchlib.end_to_end(args.workload, result, pins)
    matched, attempted = benchlib.check_phase(
        args.workload, result["timed"], pins)
    correct = matched == attempted
    for name, (value, unit) in metrics.items():
        note = notes.get(name)
        print("  %-18s %14.6f %-5s%s" % (name, value, unit, "  (%s)" % note if note else ""))

    if args.trace == 1:
        with open(trace_path) as f:
            spans = benchlib.span_tree(json.load(f))
        values, table = per_layer(args.workload, result, spans)
        t_matched, t_attempted = benchlib.check_phase(
            args.workload, result["traced"], pins)
        trace_ok = check_trace(out, args.workload, trace_path)
        correct = correct and t_matched == t_attempted and trace_ok
        print("stage table (%s, traced pass, self time inside operation roots):"
              % args.workload)
        print("  %-28s %8s %12s %8s" % ("span", "calls", "self_ms", "share"))
        for name, calls, self_ms, share in table:
            print("  %-28s %8d %12.3f %7.2f%%" % (name, calls, self_ms, share * 100))
        print("  trace.coverage_frac %.4f   trace.overhead_frac %.4f   trace_check %s"
              % (values["trace.coverage_frac"], values["trace.overhead_frac"],
                 "ok" if trace_ok else "FAILED"))
        reported = {name: {"value": values[name], "unit": unit}
                    for name, unit in PER_LAYER_UNITS}
        attempted += t_attempted
        matched += t_matched
    else:
        reported = {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}

    capture = {"context": ctx, "workload": args.workload, "trace": args.trace,
               "plan": plan, "metrics": reported, "correct": correct}
    captures = os.path.join(out, "captures")
    os.makedirs(captures, exist_ok=True)
    with open(os.path.join(captures, tag + ".json"), "w") as f:
        json.dump(capture, f, indent=1)

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": attempted - matched, "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
