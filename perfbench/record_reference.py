#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_reference.py

Run from the root of a checkout of the commit whose outputs become the
reference; it rewrites perfbench/reference/*.json. Analytic outputs are
later compared within workloads.REL_TOL, seeded simulator outputs exactly.
The analytic workload's named policies do not depend on the workload seed
(every optimizer run converges to one policy per preset and penalty); the
script checks that over ANALYTIC_SEEDS before recording one value.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run

run.import_package()

import workloads  # noqa: E402  (needs aoi_outage from src/)

CONVERGENCE_SEEDS = range(0, 21)
ANALYTIC_SEEDS = range(0, 5)


def write(name: str, document: dict) -> None:
    path = workloads.REFERENCE_DIR / f"{name}.json"
    path.write_text(json.dumps(document, separators=(",", ":"), sort_keys=True) + "\n")
    print(f"wrote {path} ({path.stat().st_size} bytes)")


def record_table2(outdir: Path) -> None:
    wl = workloads.Table2(0, outdir)
    rows = wl.collect(wl.run())
    write("table2", {"rows": {
        f"{scenario}/{policy}": {
            "analytic_p_out": float(r["analytic_p_out"]),
            "empirical_mean_p_out": float(r["empirical_mean_p_out"]),
            "empirical_std_p_out": float(r["empirical_std_p_out"]),
            "grid": [r["seeds"], r["reps"], r["periods"]],
        }
        for (scenario, policy), r in rows.items()
    }})


def record_convergence(outdir: Path) -> None:
    seeds = {}
    for seed in CONVERGENCE_SEEDS:
        wl = workloads.Convergence(seed, outdir)
        by_policy = wl.collect(wl.run())
        seeds[str(seed)] = {
            "analytic": [wl.analytic(by_policy[pid]) for pid in range(wl.n_policies)],
            "measured": [wl.measured_digest(by_policy[pid]) for pid in range(wl.n_policies)],
        }
    write("convergence", {"seeds": seeds})


def record_analytic(outdir: Path) -> None:
    document = None
    for seed in ANALYTIC_SEEDS:
        wl = workloads.Analytic(seed, outdir)
        outputs = wl.collect(wl.run())
        current = {}
        for preset, policies in wl.cases:
            best = {kind.value: min(outputs[preset, kind.value, s] for s in wl.opt_seeds)
                    for kind in workloads.PenaltyKind}
            fields = {label: {k: v for k, v in outputs[preset, label].items() if k != "truncation_t"}
                      for label in wl.named}
            current[preset] = {"best_p_out": best, "burst_stats": fields}
            oracle = workloads.ExactBurst(workloads.scenarios.load_scenario(preset).system)
            worst = 0.0
            for k, policy in enumerate(policies):
                got = outputs[preset, f"random-{k}"]
                if isinstance(got, Exception):
                    print(f"seed {seed} {preset} random-{k}: burst_stats raised {got!r}")
                    continue
                values = (got["p_out"], got["mean_outage_duration"], got["mean_ioi"])
                worst = max(worst, *(abs(g - e) / e for g, e in zip(values, oracle.stats(policy))))
            print(f"seed {seed} {preset}: worst relative gap to the exact oracle {worst:.3e}")
        if document is None:
            document = current
        elif not _agree(document, current):
            raise SystemExit(f"named-policy outputs differ at seed {seed}; cannot record one reference")
    write("analytic", document)


def _agree(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_agree(a[k], b[k]) for k in a)
    if isinstance(a, float):
        return workloads.close(b, a)
    return a == b


def main() -> int:
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    run.OUT_DIR.mkdir(exist_ok=True)
    record_analytic(run.OUT_DIR)
    record_table2(run.OUT_DIR)
    record_convergence(run.OUT_DIR)
    return 0


if __name__ == "__main__":
    sys.exit(main())
