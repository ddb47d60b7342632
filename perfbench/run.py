#!/usr/bin/env python3
"""Benchmark of the aoi_outage package, run from the root of a source checkout.

    python3 perfbench/run.py --workload {table2,convergence,analytic} \
        --seed N --seconds S --trace {0,1}

The package is imported from ./src. A run times its set-up in fresh
interpreters, warms up, then repeats the workload in this process until the
next iteration would pass --seconds, checks every output, and prints a
summary followed, as the last line, by one JSON object
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics (tracing off). --trace 1
alternates untraced and traced iterations and reports per-layer metrics
from in-memory spans, plus the tracing overhead. Machine facts, per
iteration figures and (traced) the spans go to perfbench/out/.
See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_RUNS = 5
SETUP_CODE = f"""
import sys, time
sys.path.insert(0, {str(SRC)!r})
t0 = time.perf_counter()
from aoi_outage import TransitionTables, load_scenario
for name in ("scenario_a", "scenario_b", "scenario_c"):
    TransitionTables(load_scenario(name).system)
print(time.perf_counter() - t0)
"""

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("table2", "convergence", "analytic"))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: 2, scenario_b's own master seed, for convergence; else 0)")
    parser.add_argument("--seconds", type=float, default=10.0, help="measuring time budget")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed is None:
        args.seed = 2 if args.workload == "convergence" else 0
    return args


def import_package():
    """Import aoi_outage from this checkout's src/, never from elsewhere."""
    if not (SRC / "aoi_outage" / "__init__.py").is_file():
        raise SystemExit(f"error: no aoi_outage package under {SRC}")
    sys.path.insert(0, str(SRC))
    import aoi_outage

    if Path(aoi_outage.__file__).resolve().parent != SRC / "aoi_outage":
        raise SystemExit(f"error: aoi_outage imported from {aoi_outage.__file__}, not {SRC}")


def measure_setup() -> list[float]:
    """Cold-process import plus load_scenario and TransitionTables for the
    three presets, timed inside each fresh interpreter."""
    times = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up run failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def blas_threads() -> dict[str, int]:
    """Thread count of each OpenBLAS shipped with numpy and scipy, as loaded."""
    import numpy
    import scipy

    found = {}
    symbols = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
               "openblas_get_num_threads64_", "openblas_get_num_threads")
    for package in (numpy, scipy):
        libs_dir = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for lib_path in sorted(libs_dir.glob("*openblas*")):
            lib = ctypes.CDLL(str(lib_path))
            for symbol in symbols:
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[lib_path.name] = fn()
                    break
    return found


def git_rev() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False)
    return proc.stdout.strip() or "unknown"


def machine_facts(workload, seed) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload.name,
        "seed": seed,
        "seed_varies_inputs": workload.seed_varies_inputs,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "git_rev": git_rev(),
    }


def is_error(output) -> bool:
    return output is None or isinstance(output, Exception)


class Outcomes:
    """Each iteration's outputs reduced to what the failure count needs, so
    that memory does not grow with the number of iterations. The first
    iteration that produced outputs is kept and checked in full; every
    other one must repeat it exactly, item by item."""

    def __init__(self):
        self.first = None
        self.iterations: list[tuple[set, set] | None] = []

    def add(self, outputs):
        if outputs is None:
            self.iterations.append(None)
            return
        if self.first is None:
            self.first = outputs
        keys = set(self.first) | set(outputs)
        self.iterations.append((
            {k for k in keys if is_error(outputs.get(k))},
            {k for k in keys if repr(self.first.get(k)) != repr(outputs.get(k))},
        ))

    def count(self, workload) -> tuple[int, int, int]:
        """(attempted, failed, wrong) work items over all iterations. An item
        fails when it raises, its command exits non-zero, or its output is
        wrong; `wrong` counts only outputs produced but wrong."""
        attempted = workload.items * len(self.iterations)
        bad_first = workload.failed_items(self.first) if self.first is not None else set()
        failed = wrong = 0
        for iteration in self.iterations:
            if iteration is None:
                failed += workload.items
                continue
            errors, differs = iteration
            bad = bad_first | differs
            failed += len(bad)
            wrong += len(bad - errors)
        return attempted, min(failed, attempted), wrong


def measure(workload, seconds, tracer):
    """Repeat the workload until the next round would pass `seconds`.

    A round is one untraced iteration, followed by one traced iteration
    when a tracer is given. Returns (records, outcomes, span lists)."""
    records, outcomes, traced_spans = [], Outcomes(), []
    start = time.perf_counter()
    rounds = 0
    while True:
        for traced in (False, True) if tracer else (False,):
            if traced:
                tracer.install([sys.modules[type(workload).__module__]])
            try:
                c0, t0 = time.process_time(), time.perf_counter()
                if traced:
                    result, iteration_spans = tracer.root(workload.run)
                else:
                    result = workload.run()
                t1, c1 = time.perf_counter(), time.process_time()
            finally:
                if traced:
                    tracer.remove()
            outcomes.add(workload.collect(result))
            del result
            records.append({"traced": traced, "wall_s": t1 - t0, "cpu_s": c1 - c0,
                            "layers": spans.layer_metrics(iteration_spans) if traced else None})
            if traced:
                traced_spans.append(iteration_spans)
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > seconds:
            return records, outcomes, traced_spans


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, OUT_DIR)
    facts = machine_facts(workload, args.seed)
    setup = [] if args.trace else measure_setup()
    workload.warm_up()
    tracer = spans.Tracer() if args.trace else None
    records, outcomes, traced_spans = measure(workload, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed, wrong = outcomes.count(workload)

    plain = [r for r in records if not r["traced"]]
    wall = statistics.median(r["wall_s"] for r in plain)
    if args.trace:
        traced = [r for r in records if r["traced"]]
        layers = {k: statistics.median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
        layers["trace.wall_s"] = statistics.median(r["wall_s"] for r in traced)
        layers["trace.overhead_s"] = layers["trace.wall_s"] - wall
        layers["trace.overhead_frac"] = layers["trace.overhead_s"] / wall
        metrics = {k: {"value": v, "unit": spans.unit(k)} for k, v in layers.items()}
    else:
        values = {
            "wall_s": wall,
            "cpu_s": statistics.median(r["cpu_s"] for r in plain),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    report = {
        "facts": facts,
        "iterations": records,
        "setup_s_samples": setup,
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "metrics": metrics,
    }
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if args.trace:
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["name", "start_ns", "end_ns", "parent", "info"], "iterations": traced_spans}) + "\n")

    print("facts " + json.dumps(facts))
    print(f"{workload.name}: {len(plain)} untraced iteration(s), {len(records) - len(plain)} traced; "
          f"{attempted} items attempted, {failed} failed, {wrong} of them with wrong output")
    print(f"  {'fail_frac':28s} {failed / attempted:.6g} frac")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
