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
from .burstiness import BurstStats, DURATION_CONVENTION, burst_stats_many
from .optimizer import PenaltyKind, improve_policy, min_error_policy, naive_policy
from .reference import PUBLISHED_OUTAGE_RATES
from .scenarios import ConfigError, Scenario, _value, load_scenario
from .simulate import CHECKPOINTS, burst_convergence, median_errors, normalized_error, run_repetitions_many

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


def _write_csv(path: str, rows: list[dict]) -> None:
    """A table of rows that share their keys, the first row's keys as header."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def _named_policy(cfg, policy_name: str):
    """naive, min-error, or a penalty's sweep, which is optimize's final policy."""
    if policy_name in PENALTY_CHOICES:
        return improve_policy(cfg, PenaltyKind(policy_name))
    return naive_policy(cfg) if policy_name == "naive" else min_error_policy(cfg)


def _resolve_policy(scenario: Scenario, policy_name: str, policy_file: str | None):
    """A named policy, or a policy file's array unchecked: scoring it validates it."""
    if policy_name != "file":
        return _named_policy(scenario.system, policy_name), policy_name
    try:
        document = json.loads(Path(policy_file).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in policy file {policy_file}: {exc}") from exc
    best = document.get("best") if isinstance(document, dict) else None
    for holder in (document, best):
        if isinstance(holder, dict) and "policy_lambda" in holder:
            return np.asarray(holder["policy_lambda"]), f"file:{policy_file}"
    raise ConfigError("policy file must carry a 'policy_lambda' array")


def cmd_optimize(args) -> int:
    scenario = load_scenario(args.config)
    policy = _named_policy(scenario.system, args.penalty)
    [stats] = burst_stats_many(scenario.system, [policy])
    document = {
        "metadata": _metadata(scenario),
        "penalty": args.penalty,
        "best": {
            "analytic_p_out": stats.p_out,
            "policy_lambda": policy.tolist(),
            "index_base": 1,
        },
    }
    _write_json(args.out, document)
    print(f"optimize[{scenario.name}/{args.penalty}]: analytic p_out {stats.p_out:.6e} -> {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    scenario = load_scenario(args.config)
    policy, source = _resolve_policy(scenario, args.policy, args.policy_file)
    [stats] = burst_stats_many(scenario.system, [policy])
    document = {
        "metadata": _metadata(scenario),
        "policy_source": source,
        "analytic_p_out": stats.p_out,
        "burst": _burst_dict(stats),
    }
    _write_json(args.out, document)
    print(f"evaluate[{scenario.name}/{source}]: analytic p_out {stats.p_out:.6e} -> {args.out}")
    return 0


def _analyse_and_simulate(args, scenario: Scenario, policies) -> tuple[list, list, int, int]:
    """The policies' analytic burst statistics in one batch, then their
    repetitions in one simulation batch at --reps and --periods, or the
    scenario's own; returns (stats, summaries, reps, periods). Analysis
    comes first, so a numerical failure exits 2 before any simulation."""
    sim = scenario.simulation
    reps = args.reps if args.reps is not None else sim.reps
    periods = args.periods if args.periods is not None else sim.periods
    stats = burst_stats_many(scenario.system, policies)
    summaries = run_repetitions_many(scenario.system, policies, reps, periods, sim.master_seed)
    return stats, summaries, reps, periods


def cmd_simulate(args) -> int:
    scenario = load_scenario(args.config)
    policy, source = _resolve_policy(scenario, args.policy, args.policy_file)
    [stats], [summary], reps, periods = _analyse_and_simulate(args, scenario, [policy])
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
        _write_csv(args.csv, [
            {"rep": rep, "seed": result.seed, "outage_rate": result.outage_rate,
             "n_bursts": len(result.burst_durations), "mean_burst": _defined(result.mean_burst),
             "n_iois": len(result.ioi_durations), "mean_ioi": _defined(result.mean_ioi)}
            for rep, result in enumerate(summary.results)
        ])
    print(f"simulate[{scenario.name}/{source}]: mean outage rate "
          f"{summary.outage_rate_mean:.6e} over {reps} x {periods} periods -> {args.out}")
    return 0


_TABLE2_POLICIES = (*PENALTY_CHOICES, "naive", "min-error")


def _table2_rows(args, preset: str) -> list[dict]:
    """reproduce-table2's CSV rows of one preset: its six named policies,
    their analytic burst statistics in one batch and their repetitions in
    one simulation batch."""
    scenario = load_scenario(preset)
    seeds = args.seeds if args.seeds is not None else scenario.optimizer.seeds
    policies = [_named_policy(scenario.system, policy_name) for policy_name in _TABLE2_POLICIES]
    stats, summaries, reps, periods = _analyse_and_simulate(args, scenario, policies)
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
    started = time.perf_counter()
    rows = [row for preset in ("scenario_a", "scenario_b", "scenario_c")
            for row in _table2_rows(args, preset)]
    _write_csv(args.out, rows)
    print(f"reproduce-table2: {len(rows)} rows in {time.perf_counter() - started:.1f}s -> {args.out}")
    return 0


def cmd_burst_convergence(args) -> int:
    scenario = load_scenario(args.config)
    rows = burst_convergence(scenario.system, args.n_policies, scenario.simulation.master_seed)
    _write_csv(args.out, rows)
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
        # a count flag follows the scenario's rule for a count: an int64 of at least 1
        for name in ("seeds", "reps", "periods", "n_policies"):
            if (value := getattr(args, name, None)) is not None:
                _value(value, "--" + name.replace("_", "-"), int, 1)
        # --policy-file is read exactly when --policy is file
        policy = getattr(args, "policy", None)
        if policy == "file" and args.policy_file is None:
            raise ConfigError("--policy file requires --policy-file PATH")
        if policy not in (None, "file") and args.policy_file is not None:
            raise ConfigError(f"--policy-file is read only with --policy file, got --policy {policy}")
        return args.func(args)
    # a ConfigError is a ValueError, and a MemoryError is a batch numpy cannot allocate
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
