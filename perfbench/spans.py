"""In-memory spans around the public calls into aoi_outage, and the
per-layer metrics derived from them.

A span is [name, start_ns, end_ns, parent_index, info]. The tracer wraps
each target function once and rebinds every module-level name that refers
to it, so calls made inside the package (cli -> optimizer -> markov) are
caught as well as the benchmark's own calls. Layers are named after the
package modules; `bench.iteration` is the root span of one workload
iteration.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("scenarios", "markov", "states", "optimizer", "burstiness", "simulate", "cli")


def _solve_info(args, pi):
    """Stationary residual max |pi P - pi|, recomputed outside the package."""
    p = np.asarray(args[0], dtype=float)
    return float(np.abs(pi @ p - pi).max())


def _optimize_info(args, report):
    useful = sum(1 for _, metric, _ in report.convergence_trace if metric > 0.0)
    return report.iterations, useful


def _burst_info(args, stats):
    if not stats.defined:
        return stats.truncation_t, 0.0
    gap = abs(stats.p_out - stats.xi_res_out_1 * stats.mean_outage_duration)
    return stats.truncation_t, gap / stats.p_out


def _sim_info(args, result):
    return result.periods


# (module, attribute, info function); the span name is "<module>.<attribute>"
_TARGETS = (
    ("scenarios", "load_scenario", None),
    ("markov", "build_transition_matrix", None),
    ("markov", "steady_state", _solve_info),
    ("markov", "outage_probability", None),
    ("states", "outage_mask", None),
    ("optimizer", "optimize", _optimize_info),
    ("optimizer", "improve_policy", None),
    ("burstiness", "burst_stats", _burst_info),
    ("simulate", "simulate", _sim_info),
    ("simulate", "run_repetitions", None),
    ("simulate", "measure_bursts", None),
    ("cli", "cmd_reproduce_table2", None),
    ("cli", "cmd_burst_convergence", None),
)


class Tracer:
    """Records spans while installed; `remove` restores every binding."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, info):
        def traced(*args, **kwargs):
            span = [name, 0, 0, self._stack[-1] if self._stack else None, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                self._stack.pop()
            if info is not None:
                span[4] = info(args, result)
            return result

        return traced

    def install(self, extra_modules=()):
        modules = [m for n, m in sys.modules.items() if n == "aoi_outage" or n.startswith("aoi_outage.")]
        modules.extend(extra_modules)
        for mod_name, attr, info in _TARGETS:
            original = getattr(importlib.import_module(f"aoi_outage.{mod_name}"), attr)
            wrapper = self._wrap(f"{mod_name}.{attr}", original, info)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, value))
                        setattr(module, key, wrapper)
        tables_cls = importlib.import_module("aoi_outage.markov").TransitionTables
        self._restore.append((tables_cls, "__init__", tables_cls.__init__))
        tables_cls.__init__ = self._wrap("markov.TransitionTables", tables_cls.__init__, None)

    def remove(self):
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def root(self, fn):
        """Run fn() under a `bench.iteration` root span.

        Returns (result, spans) with the iteration's spans re-indexed so that
        parent indices point into the returned list."""
        first = len(self.spans)
        result = self._wrap("bench.iteration", fn, None)()
        spans = [[n, t0, t1, None if p is None else p - first, info]
                 for n, t0, t1, p, info in self.spans[first:]]
        return result, spans


_UNIT_SUFFIXES = (
    ("_frac", "frac"), ("_s", "s"), ("_ms", "ms"), ("_us", "us"), ("ns_per_period", "ns"),
    ("residual_max", "1"), ("gap_rel_max", "1"),
)


def unit(metric: str) -> str:
    """Unit of a per-layer metric, read from its name; the rest are counts."""
    return next((u for suffix, u in _UNIT_SUFFIXES if metric.endswith(suffix)), "count")


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer work counts, busy times and invariants of one iteration.

    Self time is a span's duration minus that of its direct children.
    Layers the workload never calls read 0.
    """
    dur = [(s[2] - s[1]) / 1e9 for s in spans]
    child = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s[3] is not None:
            child[s[3]] += d
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[0]].append(i)

    def total(name):
        return float(sum(dur[i] for i in by_name[name]))

    def infos(name):
        """Info values of the calls that returned; a call that raised has none."""
        return [spans[i][4] for i in by_name[name] if spans[i][4] is not None]

    self_s = defaultdict(float)
    for s, d, c in zip(spans, dur, child):
        self_s[s[0].split(".")[0]] += d - c

    m: dict[str, float] = {}
    periods = sum(infos("simulate.simulate"))
    m["simulate.periods"] = periods
    m["simulate.sim_s"] = total("simulate.simulate")
    m["simulate.ns_per_period"] = m["simulate.sim_s"] * 1e9 / periods if periods else 0.0
    m["simulate.measure_bursts_s"] = total("simulate.measure_bursts")

    opt = infos("optimizer.optimize")
    iterations = sum(it for it, _ in opt)
    m["optimizer.runs"] = len(opt)
    m["optimizer.optimize_s"] = total("optimizer.optimize")
    m["optimizer.sweeps"] = len(by_name["optimizer.improve_policy"])
    m["optimizer.sweep_s"] = total("optimizer.improve_policy")
    m["optimizer.iterations_mean"] = iterations / len(opt) if opt else 0.0
    m["optimizer.useful_sweep_frac"] = sum(u for _, u in opt) / iterations if iterations else 0.0

    builds = [dur[i] for i in by_name["markov.build_transition_matrix"]]
    residuals = infos("markov.steady_state")
    m["markov.build_calls"] = len(builds)
    m["markov.build_s"] = float(sum(builds))
    m["markov.build_p50_us"] = float(np.median(builds)) * 1e6 if builds else 0.0
    m["markov.solve_calls"] = len(residuals)
    m["markov.solve_s"] = total("markov.steady_state")
    m["markov.solve_residual_max"] = max(residuals, default=0.0)
    m["markov.tables_calls"] = len(by_name["markov.TransitionTables"])
    m["markov.tables_s"] = total("markov.TransitionTables")

    bursts = [dur[i] for i in by_name["burstiness.burst_stats"]]
    burst_infos = infos("burstiness.burst_stats")
    terms = [t for t, _ in burst_infos]
    m["burstiness.calls"] = len(bursts)
    m["burstiness.burst_stats_s"] = float(sum(bursts))
    m["burstiness.p50_ms"] = float(np.percentile(bursts, 50)) * 1e3 if bursts else 0.0
    m["burstiness.p90_ms"] = float(np.percentile(bursts, 90)) * 1e3 if bursts else 0.0
    m["burstiness.series_terms_mean"] = float(np.mean(terms)) if terms else 0.0
    m["burstiness.series_terms_max"] = max(terms, default=0)
    m["burstiness.identity_gap_rel_max"] = max((g for _, g in burst_infos), default=0.0)

    m["states.outage_mask_calls"] = len(by_name["states.outage_mask"])
    m["scenarios.load_s"] = total("scenarios.load_scenario")
    commands = [i for name, idx in by_name.items() if name.startswith("cli.") for i in idx]
    m["cli.command_s"] = float(sum(dur[i] for i in commands))
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s[layer]
    m["trace.spans"] = len(spans)
    return m
