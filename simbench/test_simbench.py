#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 simbench/test_simbench.py

Runs run.py on every workload with a short budget and checks that:
  - every metric BENCHMARK.json names is printed, with its unit, in the
    mode that reports it (and nothing else is);
  - two traced runs agree exactly on every model, count and ratio metric
    (host-time metrics aside);
  - at seed 0 the workloads rebuild the paper benches' machines exactly
    (Fig 8 uncached 12.8067 KIOPS, mixed load 179,303 txn/s at 250 users,
    Q20 slowdown 33.57x, 4-channel cached writes 4191.6 KIOPS);
  - a forced validation failure raises ops_failed_pct, clears "correct"
    and makes the run exit non-zero;
  - a directory holding only BENCHMARK.json and simbench/ makes the run
    exit non-zero without printing a result.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SECONDS = "1"

# Per-layer metrics that are host times (or ratios of them): they differ
# between runs by nature; every other per-layer metric must repeat.
HOST_TIMED = {"host.calib_ms", "host.wall_ops_per_s",
              "kernel.host_ns_per_event", "core.construct_s",
              "core.precondition_s", "driver.submit_host_ns_per_op",
              "span.overhead_pct", "shard.speedup_x"}


def run(workload, trace, seed=0, extra=(), cwd=ROOT):
    cmd = [sys.executable, "simbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace),
           *extra]
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                       timeout=900)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return p, lines, result


def headline(lines):
    line = next(l for l in lines if l.startswith("# model "))
    return float(line.split("headline ")[1].split(",")[0])


class MetricsTest(unittest.TestCase):
    traced = {}

    @classmethod
    def setUpClass(cls):
        for w in WORKLOADS:
            cls.traced[w] = run(w, 1)

    def check_names(self, result, specs):
        self.assertEqual(set(result.keys()),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        got = result["metrics"]
        self.assertEqual(set(got), {m["name"] for m in specs})
        for m in specs:
            self.assertEqual(got[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(got[m["name"]]["value"], (int, float))

    def test_end_to_end_metrics_named_with_units(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                p, lines, result = run(w, 0)
                self.assertEqual(p.returncode, 0, p.stderr[-2000:])
                self.check_names(result, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"],
                                       0, m["name"])
                    self.assertIn(f"# metric {m['name']} = ", p.stdout)

    def test_layer_metrics_named_with_units(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                p, lines, result = self.traced[w]
                self.assertEqual(p.returncode, 0, p.stderr[-2000:])
                self.check_names(result, SPEC["per_layer"])

    def test_traced_runs_repeat_exactly(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a = self.traced[w][2]["metrics"]
                b = run(w, 1)[2]["metrics"]
                for name in a:
                    if name not in HOST_TIMED:
                        self.assertEqual(a[name], b[name], name)

    def test_seed_zero_rebuilds_the_paper_benches(self):
        m = {w: self.traced[w][2]["metrics"] for w in WORKLOADS}
        self.assertAlmostEqual(
            m["fio_uncached"]["model.sim_ops_per_s"]["value"] / 1e3,
            12.8067, places=4)
        self.assertEqual(round(m["mixedload"]["model.sim_ops_per_s"]["value"]),
                         179303)
        self.assertAlmostEqual(headline(self.traced["tpch_q20"][1]), 33.5719,
                               places=4)
        self.assertAlmostEqual(
            m["fio_cached_4ch"]["model.sim_ops_per_s"]["value"] / 1e3,
            4191.6, places=1)

    def test_serial_and_sharded_models_differ_today(self):
        m = self.traced["fio_cached_4ch"][2]["metrics"]
        self.assertEqual(m["shard.executors"]["value"], 2)
        self.assertEqual(m["shard.model_diverges"]["value"], 1)

    def test_other_seed_changes_inputs(self):
        a = self.traced["fio_uncached"][2]["metrics"]["model.stats_fnv"]
        b = run("fio_uncached", 1, seed=7)[2]["metrics"]["model.stats_fnv"]
        self.assertNotEqual(a, b)


class GateTest(unittest.TestCase):
    def test_forced_validation_failure_counts(self):
        p, lines, result = run("mixedload", 1, extra=("--corrupt-read", "5"))
        self.assertEqual(p.returncode, 1)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertGreater(result["metrics"]["ops_failed_pct"]["value"], 0)
        self.assertTrue(any(l.startswith("# FAIL ") for l in lines))

    def test_bare_directory_fails_without_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(ROOT / "simbench", Path(tmp) / "simbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            p, lines, result = run("mixedload", 0, cwd=tmp)
            self.assertNotEqual(p.returncode, 0)
            self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main(verbosity=2)
