#!/usr/bin/env python3
"""Tests of the benchmark itself: self-time arithmetic, medians, failure
counting, and a smoke-size run of every workload.

    python3 perfbench/test_run.py

The smoke tests build the driver under .bench_build/ on first use.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402


def fake_record(digest="d1", receivers=9, systems=("bullet-prime",)):
    return {
        "workload": "fake",
        "profiled": False,
        "peak_rss_kb": 2048,
        "cpu_user_s": 1.5,
        "cpu_sys_s": 0.5,
        "digest": digest,
        "systems": [{
            "system": name, "seed": 1, "members": receivers + 1, "threads": 1,
            "run_s": 2.0, "topology_build_s": 0.25, "experiment_setup_s": 0.5,
            "cpu_user_s": 1.5, "cpu_sys_s": 0.5, "receivers": receivers,
            "completed": receivers, "incomplete": 0, "departed": 0,
            "departed_incomplete": 0, "file_bytes": 100, "events": 1000,
            "allocator_epochs": 10, "bytes_sent": 100 * receivers + 50,
            "route_cache_bytes": 0, "path_pool_bytes": 64, "arena_peak_bytes": 128,
            "profile": {},
        } for name in systems],
    }


class SelfTimeTest(unittest.TestCase):
    INCLUSIVE = {
        "event_dispatch": 10.0, "allocator_epoch": 4.0, "water_fill": 3.0,
        "protocol_logic": 5.0, "request_strategy": 1.0, "path_lookup": 0.5,
        "topology_metrics": 0.25, "barrier_wait": 0.0, "merge": 0.0,
    }

    def test_serial_nesting(self):
        own = run.self_times(self.INCLUSIVE, 12.0, run.PHASE_PARENT)
        self.assertAlmostEqual(own[run.RUN_SPAN], 2.0)
        self.assertAlmostEqual(own["event_dispatch"], 10.0 - 4.0 - 5.0)
        self.assertAlmostEqual(own["allocator_epoch"], 1.0)
        self.assertAlmostEqual(own["water_fill"], 3.0)
        self.assertAlmostEqual(own["protocol_logic"], 5.0 - 1.0 - 0.5 - 0.25)
        # Self times and the run span's own time add back up to the budget.
        self.assertAlmostEqual(sum(own.values()), 12.0)

    def test_parallel_engine_allocator_is_a_root(self):
        inclusive = dict(self.INCLUSIVE, barrier_wait=3.0, merge=1.0)
        own = run.self_times(inclusive, 20.0, run.PARALLEL_PHASE_PARENT)
        self.assertAlmostEqual(own["event_dispatch"], 10.0 - 5.0)
        self.assertAlmostEqual(own[run.RUN_SPAN], 20.0 - 10.0 - 4.0 - 3.0 - 1.0)
        self.assertAlmostEqual(sum(own.values()), 20.0)

    def test_missing_phases_count_as_zero(self):
        own = run.self_times({}, 3.0, run.PHASE_PARENT)
        self.assertEqual(own[run.RUN_SPAN], 3.0)
        self.assertEqual(own["protocol_logic"], 0.0)

    def test_traced_layers_use_the_nesting(self):
        rec = fake_record()
        rec["systems"][0]["profile"] = {
            phase: {"count": 2, "ns": int(ns * 1e9)} for phase, ns in self.INCLUSIVE.items()}
        rec["systems"][0]["run_s"] = 12.0
        layers = run.traced_layers(rec)
        self.assertAlmostEqual(layers["sim.event_queue.self_s"], 2.0)
        self.assertAlmostEqual(layers["core.protocol_logic.self_s"], 3.25)
        self.assertAlmostEqual(layers["sim.allocator.ns_per_epoch"], 4e9 / 10)
        self.assertAlmostEqual(layers["trace.coverage_frac"], 10.0 / 12.0)
        self.assertEqual(layers["core.request_strategy.calls"], 2.0)


class MedianTest(unittest.TestCase):
    def test_medians_are_per_metric(self):
        rows = [{"a": 1.0, "b": 30.0}, {"a": 5.0, "b": 10.0}, {"a": 3.0, "b": 20.0}]
        self.assertEqual(run.medians(rows), {"a": 3.0, "b": 20.0})
        self.assertEqual(run.medians(rows + [{"a": 4.0, "b": 0.0}]), {"a": 3.5, "b": 15.0})

    def test_end_to_end_sums_systems(self):
        rec = fake_record(systems=("bullet-prime", "bittorrent"))
        e2e = run.end_to_end(rec)
        self.assertEqual(e2e["run_s"], 4.0)
        self.assertEqual(e2e["setup_s"], 1.5)
        self.assertEqual(e2e["cpu_s"], 2.0)
        self.assertEqual(e2e["peak_rss_mb"], 2.0)


class FailureCountTest(unittest.TestCase):
    def test_clean_run(self):
        self.assertEqual(run.count_failures([fake_record(), fake_record()]), (18, 0))

    def test_incomplete_member_fails(self):
        bad = fake_record()
        bad["systems"][0]["completed"] -= 1
        bad["systems"][0]["incomplete"] = 1
        self.assertEqual(run.count_failures([fake_record(), bad]), (18, 1))

    def test_digest_mismatch_fails_every_member(self):
        self.assertEqual(run.count_failures([fake_record(), fake_record(digest="d2")]), (18, 9))

    def test_bytes_below_deliveries_fail_the_system(self):
        bad = fake_record(systems=("bullet-prime", "bullet"))
        bad["systems"][1]["bytes_sent"] = 99
        self.assertEqual(run.count_failures([bad]), (18, 9))

    def test_unaccounted_member_fails_the_system(self):
        bad = fake_record()
        bad["systems"][0]["completed"] -= 1
        self.assertEqual(run.count_failures([bad]), (9, 9))

    def test_crash_counts_a_whole_iteration(self):
        self.assertEqual(run.count_failures([fake_record(), None]), (18, 9))
        self.assertEqual(run.count_failures([None]), (1, 1))

    def test_summary_marks_failure(self):
        ok = fake_record()
        attempted, failed, metrics, _ = run.summarize(
            [("plain", ok), ("plain", None), ("plain", copy.deepcopy(ok))], trace=0)
        self.assertEqual((attempted, failed), (27, 9))
        self.assertEqual(metrics["run_s"], 2.0)


class SeedTest(unittest.TestCase):
    def test_instances_start_at_the_seed(self):
        self.assertEqual(run.instance_seeds(7, 3, 1000), [7, 1007, 2007])


def run_bench(*args, cwd=run.ROOT):
    proc = subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=900)
    return proc


class SmokeTest(unittest.TestCase):
    """Every workload at smoke size, traced and untraced, end to end."""

    def check(self, workload, trace, kind):
        proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0",
                         "--trace", str(trace), "--scale", "smoke")
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"], proc.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(list(result["metrics"]), list(run.metric_units(kind)))
        return result["metrics"]

    def test_workloads(self):
        for workload in run.load_workloads()["workloads"]:
            with self.subTest(workload=workload):
                e2e = self.check(workload, 0, "end_to_end")
                for name in ("run_s", "cpu_s", "peak_rss_mb", "setup_s"):
                    self.assertGreater(e2e[name]["value"], 0)
                layers = self.check(workload, 1, "per_layer")
                self.assertGreater(layers["sim.events"]["value"], 0)
                self.assertGreater(layers["trace.coverage_frac"]["value"], 0)

    def test_fails_without_simulator_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(run.HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench("--workload", "dynamic_mesh", "--seed", "1", "--seconds", "1",
                             "--trace", "0", cwd=tmp)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
