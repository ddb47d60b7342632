#!/usr/bin/env python3
"""Self-test of the benchmark, run from the root of a checkout.

    python3 perfbench/selftest.py

It checks that
- the exact work counts of a traced run repeat across two runs at one seed,
  on every workload, so later changes can cite them as counts;
- an untraced run prints every end-to-end metric by name with its unit, and
  fail_frac, and a correct result;
- in a directory that holds only BENCHMARK.json and perfbench/, the
  benchmark exits non-zero without printing a result.
Takes about two minutes on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

EXACT_COUNTS = (
    "simulate.periods",
    "optimizer.runs",
    "optimizer.sweeps",
    "optimizer.iterations_mean",
    "optimizer.useful_sweep_frac",
    "markov.build_calls",
    "markov.solve_calls",
    "markov.tables_calls",
    "states.outage_mask_calls",
    "burstiness.calls",
    "burstiness.series_terms_mean",
    "burstiness.series_terms_max",
    "trace.spans",
)


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900, check=False)


def result(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"benchmark exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class BenchmarkSelfTest(unittest.TestCase):
    def test_exact_counts_repeat(self):
        for workload in ("table2", "convergence", "analytic"):
            with self.subTest(workload=workload):
                # seed 4 includes an analytic item that raises (README, Known defect)
                args = ("--workload", workload, "--seed", "4", "--seconds", "1", "--trace", "1")
                first, second = (result(bench(*args)) for _ in range(2))
                for run in (first, second):
                    self.assertTrue(run["correct"])
                declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
                self.assertEqual({k: v["unit"] for k, v in first["metrics"].items()},
                                 {m["name"]: m["unit"] for m in declared})
                counts = [{k: run["metrics"][k]["value"] for k in EXACT_COUNTS} for run in (first, second)]
                self.assertEqual(counts[0], counts[1])
                self.assertGreater(counts[0]["trace.spans"], 1)

    def test_end_to_end_metrics_printed(self):
        proc = bench("--workload", "convergence", "--seed", "7", "--seconds", "1", "--trace", "0")
        run = result(proc)
        self.assertEqual(set(run), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(run["correct"])
        self.assertEqual(run["failed"], 0)
        expected = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
        self.assertEqual({k: v["unit"] for k, v in run["metrics"].items()},
                         {m["name"]: m["unit"] for m in expected})
        for name in ("wall_s", "cpu_s", "peak_rss_mb", "setup_s", "fail_frac"):
            self.assertIn(f"  {name} ", proc.stdout)

    def test_refuses_without_the_package(self):
        bare = BENCH_DIR / "out" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            proc = bench("--workload", "analytic", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
