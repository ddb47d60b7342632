"""Command-line front end.

Subcommands:
  optimize           run the recursive optimizer for one scenario and penalty
  evaluate           analytic outage rate and burst statistics for a policy
  simulate           seeded Monte-Carlo repetitions for a policy
  reproduce-table2   the full 3-scenario x 6-policy benchmark grid (CSV)
  burst-convergence  measured-vs-analytic error decay over random policies (CSV)

Configs are JSON documents (see scenarios.py) or preset names. Reports are
JSON with a metadata block; tabular outputs are CSV with stable columns.
Exit codes: 0 success, 1 usage or config error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .burstiness import BurstStats, DURATION_CONVENTION, burst_stats, burst_stats_many
from .markov import validate_policy
from .optimizer import PenaltyKind, improve_policy, min_error_policy, naive_policy, optimize
from .reference import PUBLISHED_OUTAGE_RATES
from .scenarios import ConfigError, Scenario, load_scenario
from .simulate import (
    CHECKPOINTS,
    burst_convergence,
    median_errors,
    normalized_error,
    run_repetitions,
    run_repetitions_many,
)

PENALTY_CHOICES = tuple(k.value for k in PenaltyKind)
POLICY_CHOICES = ("naive", "min-error", "file")


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; this front end uses 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _metadata(scenario: Scenario) -> dict:
    return {
        "tool_version": __version__,
        "scenario": scenario.name,
        "config_hash": scenario.config_hash,
        "duration_convention": DURATION_CONVENTION,
    }


def _burst_dict(stats: BurstStats) -> dict:
    return {
        "defined": stats.defined,
        "p_out": stats.p_out,
        "xi_res_out_1": stats.xi_res_out_1,
        "mean_outage_duration": stats.mean_outage_duration,
        "mean_ioi": stats.mean_ioi,
        "duration_pmf": None if stats.duration_pmf is None else stats.duration_pmf.tolist(),
        "truncation_t": stats.truncation_t,
        "truncation_residual": stats.truncation_residual,
        "convention": DURATION_CONVENTION,
    }


def _defined(value: float | None) -> float | None:
    """A measured statistic, or None (JSON null) where it is undefined."""
    return value if value is not None and math.isfinite(value) else None


def _check_output_dirs(args) -> None:
    """Refuse an output path in a missing directory, an output path that is
    a directory, and --out and --csv at one path, before any work, so a
    failed run writes no file at all."""
    paths = [path for path in (args.out, getattr(args, "csv", None)) if path is not None]
    for path in paths:
        if not Path(path).parent.is_dir():
            raise ConfigError(f"directory of output path {path} does not exist")
        if Path(path).is_dir():
            raise ConfigError(f"output path {path} is a directory")
    if len(paths) == 2 and Path(paths[0]).resolve() == Path(paths[1]).resolve():
        raise ConfigError(f"--out and --csv are the same path {paths[1]}")


def _write_json(path: str, document: dict) -> None:
    Path(path).write_text(json.dumps(document, indent=2, sort_keys=False, allow_nan=False) + "\n")


def _resolve_policy(scenario: Scenario, policy_name: str, policy_file: str | None):
    cfg = scenario.system
    if policy_name == "naive":
        return naive_policy(cfg), "naive"
    if policy_name == "min-error":
        return min_error_policy(cfg), "min-error"
    if policy_file is None:
        raise ConfigError("--policy file requires --policy-file PATH")
    try:
        document = json.loads(Path(policy_file).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in policy file {policy_file}: {exc}") from exc
    best = document.get("best") if isinstance(document, dict) else None
    for holder in (document, best):
        if isinstance(holder, dict) and "policy_lambda" in holder:
            return validate_policy(np.asarray(holder["policy_lambda"]), cfg), f"file:{policy_file}"
    raise ConfigError("policy file must carry a 'policy_lambda' array")


def cmd_optimize(args) -> int:
    scenario = load_scenario(args.config)
    kind = PenaltyKind(args.penalty)
    report = optimize(scenario.system, kind, 0)
    document = {
        "metadata": _metadata(scenario),
        "penalty": kind.value,
        "best": {
            "analytic_p_out": report.best_p_out,
            "policy_lambda": report.final_policy.tolist(),
            "index_base": 1,
        },
    }
    _write_json(args.out, document)
    print(f"optimize[{scenario.name}/{kind.value}]: analytic p_out "
          f"{report.best_p_out:.6e} -> {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    scenario = load_scenario(args.config)
    policy, source = _resolve_policy(scenario, args.policy, args.policy_file)
    stats = burst_stats(scenario.system, policy)
    document = {
        "metadata": _metadata(scenario),
        "policy_source": source,
        "analytic_p_out": stats.p_out,
        "burst": _burst_dict(stats),
    }
    _write_json(args.out, document)
    print(f"evaluate[{scenario.name}/{source}]: analytic p_out {stats.p_out:.6e} -> {args.out}")
    return 0


def cmd_simulate(args) -> int:
    scenario = load_scenario(args.config)
    cfg = scenario.system
    policy, source = _resolve_policy(scenario, args.policy, args.policy_file)
    reps = args.reps if args.reps is not None else scenario.simulation.reps
    periods = args.periods if args.periods is not None else scenario.simulation.periods
    stats = burst_stats(cfg, policy)
    summary = run_repetitions(cfg, policy, reps, periods, scenario.simulation.master_seed)
    compared = (
        ("p_out", summary.outage_rate_mean, stats.p_out),
        ("mean_burst", summary.mean_burst, stats.mean_outage_duration),
        ("mean_ioi", summary.mean_ioi, stats.mean_ioi),
    )
    document = {
        "metadata": _metadata(scenario),
        "policy_source": source,
        "reps": reps,
        "periods": periods,
        "master_seed": scenario.simulation.master_seed,
        "outage_rate_mean": summary.outage_rate_mean,
        "outage_rate_std": summary.outage_rate_std,
        "per_rep_outage_rate": summary.outage_rates.tolist(),
        "n_bursts": len(summary.burst_durations),
        "mean_burst": _defined(summary.mean_burst),
        "n_iois": len(summary.ioi_durations),
        "mean_ioi": _defined(summary.mean_ioi),
        "analytic": _burst_dict(stats),
        "normalized_errors": {
            name: _defined(normalized_error(measured, predicted)) if stats.defined else None
            for name, measured, predicted in compared
        },
    }
    _write_json(args.out, document)
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["rep", "seed", "outage_rate", "n_bursts", "mean_burst", "n_iois", "mean_ioi"])
            for rep, result in enumerate(summary.results):
                writer.writerow([
                    rep, result.seed, result.outage_rate,
                    len(result.burst_durations), _defined(result.mean_burst),
                    len(result.ioi_durations), _defined(result.mean_ioi),
                ])
    print(f"simulate[{scenario.name}/{source}]: mean outage rate "
          f"{summary.outage_rate_mean:.6e} over {reps} x {periods} periods -> {args.out}")
    return 0


_TABLE2_POLICIES = ("binary", "sum-aoi", "peak-aoi", "exp-peak-aoi", "naive", "min-error")


def _table2_rows(args, preset: str) -> list[dict]:
    """reproduce-table2's CSV rows of one preset: its six policies (a
    penalty's policy is its sweep, which is optimize's final policy), their
    analytic burst statistics in one batch and their repetitions in one
    simulation batch."""
    scenario = load_scenario(preset)
    cfg = scenario.system
    seeds = args.seeds if args.seeds is not None else scenario.optimizer.seeds
    reps = args.reps if args.reps is not None else scenario.simulation.reps
    periods = args.periods if args.periods is not None else scenario.simulation.periods
    policies = []
    for policy_name in _TABLE2_POLICIES:
        if policy_name == "naive":
            policies.append(naive_policy(cfg))
        elif policy_name == "min-error":
            policies.append(min_error_policy(cfg))
        else:
            policies.append(improve_policy(cfg, PenaltyKind(policy_name)))
    stats = burst_stats_many(cfg, policies)
    summaries = run_repetitions_many(cfg, policies, reps, periods, scenario.simulation.master_seed)
    rows = []
    for policy_name, policy_stats, summary in zip(_TABLE2_POLICIES, stats, summaries):
        published = PUBLISHED_OUTAGE_RATES[scenario.name, policy_name]
        rows.append({
            "scenario": scenario.name,
            "policy": policy_name,
            "analytic_p_out": policy_stats.p_out,
            "empirical_mean_p_out": summary.outage_rate_mean,
            "empirical_std_p_out": summary.outage_rate_std,
            "published_p_out": published,
            "seeds": seeds if policy_name in PENALTY_CHOICES else 0,
            "reps": reps,
            "periods": periods,
        })
        print(f"  {scenario.name:10s} {policy_name:12s} analytic {policy_stats.p_out:.6e} "
              f"empirical {summary.outage_rate_mean:.6e} "
              f"published {published:.6e}")
    return rows


def cmd_reproduce_table2(args) -> int:
    for name in ("seeds", "reps", "periods"):
        value = getattr(args, name)
        if value is not None and value < 1:
            raise ConfigError(f"{name} must be >= 1, got {value}")
    started = time.perf_counter()
    rows = [row for preset in ("scenario_a", "scenario_b", "scenario_c")
            for row in _table2_rows(args, preset)]
    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    print(f"reproduce-table2: {len(rows)} rows in {time.perf_counter() - started:.1f}s -> {args.out}")
    return 0


def cmd_burst_convergence(args) -> int:
    if args.n_policies < 1:
        raise ConfigError(f"--n-policies must be >= 1, got {args.n_policies}")
    scenario = load_scenario(args.config)
    rows = burst_convergence(scenario.system, args.n_policies, scenario.simulation.master_seed)
    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    for cp, med in zip(CHECKPOINTS, median_errors(rows)):
        print(f"  checkpoint {cp:6d}: median errors p_out {med[0]:.4f} "
              f"burst {med[1]:.4f} ioi {med[2]:.4f}")
    print(f"burst-convergence: {len(rows)} rows -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="aoi-outage", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_opt = sub.add_parser("optimize", help="run the recursive policy optimizer")
    p_opt.add_argument("--config", required=True, help="preset name or JSON config path")
    p_opt.add_argument("--penalty", required=True, choices=PENALTY_CHOICES)
    p_opt.add_argument("--out", required=True, help="output JSON path")
    p_opt.set_defaults(func=cmd_optimize)

    p_eval = sub.add_parser("evaluate", help="analytic outage rate and burst statistics")
    p_eval.add_argument("--config", required=True)
    p_eval.add_argument("--policy", required=True, choices=POLICY_CHOICES)
    p_eval.add_argument("--policy-file", default=None, help="JSON file with policy_lambda")
    p_eval.add_argument("--out", required=True)
    p_eval.set_defaults(func=cmd_evaluate)

    p_sim = sub.add_parser("simulate", help="seeded Monte-Carlo repetitions")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--policy", required=True, choices=POLICY_CHOICES)
    p_sim.add_argument("--policy-file", default=None)
    p_sim.add_argument("--reps", type=int, default=None, help="override simulation.reps")
    p_sim.add_argument("--periods", type=int, default=None, help="override simulation.periods")
    p_sim.add_argument("--out", required=True, help="output JSON path")
    p_sim.add_argument("--csv", default=None, help="optional per-repetition CSV path")
    p_sim.set_defaults(func=cmd_simulate)

    p_tab = sub.add_parser("reproduce-table2", help="benchmark grid over all presets")
    p_tab.add_argument("--out", required=True, help="output CSV path")
    p_tab.add_argument("--seeds", type=int, default=None,
                       help="seeds column of the penalty rows (default optimizer.seeds)")
    p_tab.add_argument("--reps", type=int, default=None)
    p_tab.add_argument("--periods", type=int, default=None)
    p_tab.set_defaults(func=cmd_reproduce_table2)

    p_cvg = sub.add_parser("burst-convergence", help="error decay over random policies")
    p_cvg.add_argument("--config", required=True)
    p_cvg.add_argument("--n-policies", type=int, default=100)
    p_cvg.add_argument("--out", required=True, help="output CSV path")
    p_cvg.set_defaults(func=cmd_burst_convergence)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_output_dirs(args)
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
