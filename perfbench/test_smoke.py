#!/usr/bin/env python3
"""Smoke test of the pipeline benchmark at tiny sizes.

Runs every workload of BENCHMARK.json through perfbench/run.py with
--tiny and checks that the result line carries exactly the metrics of
BENCHMARK.json with their units, that no check failed, that a repeated
seed reproduces every exact count and virtual time, and that a second
seed runs cleanly. Run from anywhere:

    python3 perfbench/test_smoke.py
"""

import json
import math
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, seed, trace):
    """One tiny run: (result line, full results file)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise AssertionError(f"{workload} seed {seed} trace {trace} exited "
                             f"{done.returncode}:\n{done.stderr[-3000:]}")
    result = json.loads(done.stdout.splitlines()[-1])
    tag = f"{workload}-seed{seed}-trace{trace}-tiny"
    full = json.loads((ROOT / ".bench_build" / "results" / f"{tag}.json")
                      .read_text())
    return result, full


class SmokeTest(unittest.TestCase):
    def test_metrics_named_with_units_and_no_failures(self):
        for workload in WORKLOADS:
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result, full = run(workload, 7, trace)
                    self.assertEqual(
                        set(result),
                        {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreater(result["attempted"], 0)
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(full["failed_frac"], 0)
                    expected = {m["name"]: m["unit"] for m in SPEC[group]}
                    got = {name: metric["unit"]
                           for name, metric in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    for name, metric in result["metrics"].items():
                        self.assertTrue(math.isfinite(metric["value"]), name)
                        if trace == 0:
                            self.assertGreater(metric["value"], 0, name)

    def test_same_seed_reproduces_exact_values(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = run(workload, 3, 0)[1]["exact"]
                second = run(workload, 3, 0)[1]["exact"]
                self.assertTrue(first)
                self.assertEqual(first, second)

    def test_second_seed_runs_cleanly(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result, _ = run(workload, 4, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)


if __name__ == "__main__":
    unittest.main()
