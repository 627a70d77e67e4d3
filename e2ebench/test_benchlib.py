"""Tests of the benchmark's own arithmetic and planning.

    python3 -m unittest discover -s e2ebench -p 'test_*.py'
"""

import copy
import json
import os
import random
import time
import unittest
from unittest import mock

import benchlib

PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")


class TailPercentileTest(unittest.TestCase):
    def test_at_least_ten_samples_beyond_and_next_step_has_fewer(self):
        for n in range(20, 3000, 7):
            rng = random.Random(n)
            values = [rng.random() for _ in range(n)]
            pct, value, beyond = benchlib.tail_percentile(values)
            self.assertGreaterEqual(beyond, benchlib.TAIL_MIN_BEYOND, n)
            ordered = sorted(values)
            self.assertEqual(value, ordered[n - beyond - 1])
            higher = [p for p in benchlib.TAIL_LADDER if p > pct]
            if higher:
                rank, _ = benchlib.nearest_rank(ordered, min(higher))
                self.assertLess(n - rank, benchlib.TAIL_MIN_BEYOND, n)

    def test_known_sizes(self):
        self.assertEqual(benchlib.tail_percentile(list(range(180)))[0], 90.0)
        self.assertEqual(benchlib.tail_percentile(list(range(192)))[0], 90.0)
        self.assertEqual(benchlib.tail_percentile(list(range(2400)))[0], 95.0)
        self.assertEqual(benchlib.tail_percentile(list(range(50)))[0], 75.0)

    def test_too_few_samples_fall_back_to_median(self):
        pct, value, _ = benchlib.tail_percentile([3.0, 1.0, 2.0])
        self.assertEqual((pct, value), (50.0, 2.0))


def fake_phase(workload, outputs, ops_per_unit):
    ops = [{"ns": 1_000_000 + i, "kind": "k", "unit": u}
           for u in range(len(outputs)) for i in range(ops_per_unit)]
    return {"wall_ns": 10**9, "ops": ops, "outputs": outputs,
            "attempted": len(ops), "failed": 0}


class PinTest(unittest.TestCase):
    def setUp(self):
        with open(PINS) as f:
            self.pins = json.load(f)

    def outputs(self, workload, count):
        keys = sorted(self.pins[workload])[:count]
        return [dict(self.pins[workload][k], key=k, ok=True) for k in keys]

    def test_matching_outputs_score_one(self):
        for workload in benchlib.WORKLOADS:
            phase = fake_phase(workload, self.outputs(workload, 3), 4)
            matched, attempted = benchlib.check_phase(workload, phase, self.pins)
            self.assertEqual((matched, attempted), (12, 12), workload)

    def test_each_pinned_field_mismatch_lowers_ok_frac(self):
        for workload in benchlib.WORKLOADS:
            for field in benchlib.PINNED_FIELDS[workload]:
                outputs = self.outputs(workload, 3)
                value = outputs[1][field]
                outputs[1][field] = (value + 1e-12 if isinstance(value, float)
                                     else str(value) + "0")
                phase = fake_phase(workload, outputs, 4)
                result = {"timed": phase, "setup_ns": [1], "peak_rss_kb": 1024}
                metrics, _ = benchlib.end_to_end(workload, result, self.pins)
                self.assertAlmostEqual(metrics["ok_frac"][0], 8 / 12, msg=field)

    def test_failed_or_unpinned_units_are_misses(self):
        outputs = self.outputs("serve_mixed", 2)
        outputs[0]["ok"] = False
        outputs[1]["key"] = "paper20/100000"
        phase = fake_phase("serve_mixed", outputs, 5)
        self.assertEqual(benchlib.check_phase("serve_mixed", phase, self.pins)[0], 0)

    def test_unanswered_requests_count_as_attempted(self):
        phase = fake_phase("serve_mixed", self.outputs("serve_mixed", 2), 5)
        phase["attempted"] += 5
        matched, attempted = benchlib.check_phase("serve_mixed", phase, self.pins)
        self.assertEqual((matched, attempted), (10, 15))

    def test_every_plannable_key_is_pinned(self):
        for workload in benchlib.WORKLOADS:
            for seed in range(50):
                plan = benchlib.make_plan(workload, seed, 20)
                for key in plan["ops"]:
                    self.assertIn(key, self.pins[workload], (workload, seed))


class PlanTest(unittest.TestCase):
    def test_plan_ignores_the_clock(self):
        """The list is the same however fast the clocks say the machine is."""
        for workload in benchlib.WORKLOADS:
            reference = benchlib.make_plan(workload, 7, 20)
            for fake_now in (0.0, 1e9):
                with mock.patch.object(time, "time", return_value=fake_now), \
                     mock.patch.object(time, "perf_counter", return_value=fake_now), \
                     mock.patch.object(time, "monotonic", return_value=fake_now):
                    self.assertEqual(benchlib.make_plan(workload, 7, 20), reference)

    def test_plan_is_a_function_of_seed_and_seconds(self):
        for workload in benchlib.WORKLOADS:
            a = benchlib.make_plan(workload, 1, 20)
            self.assertEqual(a, copy.deepcopy(benchlib.make_plan(workload, 1, 20)))
            self.assertNotEqual(a["ops"], benchlib.make_plan(workload, 2, 20)["ops"])
            sizes = {len(benchlib.make_plan(workload, s, 20)["ops"]) for s in range(20)}
            self.assertEqual(len(sizes), 1, workload)
            self.assertLessEqual(len(a["ops"]),
                                 len(benchlib.make_plan(workload, 1, 40)["ops"]))

    def test_serve_mix_and_threads(self):
        plan = benchlib.make_plan("serve_mixed", 3, 20)
        self.assertEqual(len(set(plan["ops"])), len(plan["ops"]))
        self.assertTrue(any(k.startswith("bursty8/") for k in plan["ops"]))
        self.assertTrue(any(k.startswith("paper20/") for k in plan["ops"]))
        self.assertNotIn(plan["warmup"][0], plan["ops"])
        self.assertLessEqual(plan["server_threads"] + 1, 4)
        self.assertGreater(plan["concurrency"], plan["server_threads"])


class StageTableTest(unittest.TestCase):
    def test_self_time_and_coverage(self):
        def span(name, ts, dur, tid=1):
            return {"name": name, "ph": "X", "ts": ts, "dur": dur, "pid": 1, "tid": tid}
        trace = {"traceEvents": [
            span("op.a", 0, 100), span("io.parse", 0, 10), span("core.x", 10, 85),
            span("core.y", 20, 30), span("diag.z", 200, 50), span("core.x", 210, 5),
            span("serve.rtt.open", 0, 90, tid=100)]}
        table, coverage = benchlib.stage_table(benchlib.span_tree(trace))
        rows = {name: (calls, self_ms) for name, calls, self_ms, _ in table}
        self.assertEqual(rows["core.x"], (1, 0.055))
        self.assertEqual(rows["core.y"], (1, 0.030))
        self.assertEqual(rows["io.parse"], (1, 0.010))
        self.assertNotIn("serve.rtt.open", rows)
        self.assertAlmostEqual(coverage, 0.95)


if __name__ == "__main__":
    unittest.main()
