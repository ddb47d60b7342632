"""The benchmark workloads: inputs made from the workload seed, the timed
call into aoi_outage, and the correctness checks on what it returns.

Each workload exposes `items` (work items per iteration), `warm_up()`,
`run()` (the timed part), `collect(result)` (reads outputs back, untimed)
and `failed_items(outputs)` (the set of item keys whose output is wrong).
"""

from __future__ import annotations

import contextlib
import copy
import csv
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np

from aoi_outage import burstiness, cli, scenarios
from aoi_outage.fbl import block_error_rate
from aoi_outage.markov import TransitionTables
from aoi_outage.optimizer import PenaltyKind, min_error_policy, naive_policy, optimize

PRESETS = ("scenario_a", "scenario_b", "scenario_c")
#: burst-convergence checkpoints, as documented in the package README
CHECKPOINTS = [500, 1000, 2500, 5000, 10000]
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: Analytic values may move in their last digits when a later change reorders
#: floating-point work; seeded simulator outputs must match exactly.
REL_TOL = 1e-9
#: Program vs the independent exact oracle: the program's mean burst length
#: comes from a truncated series with a geometric tail estimate.
ORACLE_REL_TOL = 1e-8


def load_reference(name: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{name}.json").read_text())


def close(value, expected, rel=REL_TOL) -> bool:
    return abs(value - expected) <= rel * abs(expected)


def _run_cli(*argv: str) -> int:
    """aoi-outage in-process, its console output kept in memory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    if code != 0:
        print(f"aoi-outage {argv[0]} exited {code}: {err.getvalue().strip()}", file=sys.stderr)
    return code


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _gap_ok(p_out, xi1, mean_dur) -> bool:
    """The package's own outage-rate identity gate, checked from outside."""
    return abs(p_out - xi1 * mean_dur) < burstiness.IDENTITY_TOL


class Table2:
    """`aoi-outage reproduce-table2` at preset sizes. The grid is fixed by the
    presets, so the workload seed does not vary the inputs."""

    name = "table2"
    seed_varies_inputs = False
    items = 3 * 6

    def __init__(self, seed: int, outdir: Path):
        self.csv = outdir / "table2.csv"

    def warm_up(self):
        _run_cli("reproduce-table2", "--out", str(self.csv), "--seeds", "1", "--reps", "1", "--periods", "10")

    def run(self):
        return _run_cli("reproduce-table2", "--out", str(self.csv))

    def collect(self, code):
        if code != 0:
            return None
        return {(r["scenario"], r["policy"]): r for r in _read_csv(self.csv)}

    def failed_items(self, outputs):
        reference = load_reference("table2")["rows"]
        failed = set()
        for key, ref in reference.items():
            key = tuple(key.split("/"))
            row = outputs.get(key)
            if row is None or not (
                close(float(row["analytic_p_out"]), ref["analytic_p_out"])
                and float(row["empirical_mean_p_out"]) == ref["empirical_mean_p_out"]
                and float(row["empirical_std_p_out"]) == ref["empirical_std_p_out"]
                and (row["seeds"], row["reps"], row["periods"]) == tuple(ref["grid"])
            ):
                failed.add(key)
        return failed | (set(outputs) - {tuple(k.split("/")) for k in reference})


class Convergence:
    """`aoi-outage burst-convergence` on scenario_b with the workload seed as
    the simulation master seed: one 10 000-period run per distinct random
    policy plus prefix burst measurements at five checkpoints."""

    name = "convergence"
    seed_varies_inputs = True
    n_policies = 100
    items = n_policies

    def __init__(self, seed: int, outdir: Path):
        document = copy.deepcopy(scenarios.PRESETS["scenario_b"])
        document["simulation"]["master_seed"] = seed
        self.config = outdir / f"convergence-config-seed{seed}.json"
        self.config.write_text(json.dumps(document, indent=2) + "\n")
        self.csv = outdir / "convergence.csv"
        self.seed = seed

    def warm_up(self):
        _run_cli("burst-convergence", "--config", str(self.config), "--n-policies", "1", "--out", str(self.csv))

    def run(self):
        return _run_cli(
            "burst-convergence", "--config", str(self.config),
            "--n-policies", str(self.n_policies), "--out", str(self.csv),
        )

    def collect(self, code):
        if code != 0:
            return None
        by_policy: dict[int, list[dict]] = {}
        for row in _read_csv(self.csv):
            by_policy.setdefault(int(row["policy_id"]), []).append(row)
        return by_policy

    @staticmethod
    def measured_digest(rows) -> str:
        """Digest of one policy's seeded simulator outputs (exact floats)."""
        values = [
            [r["sim_seed"], r["checkpoint"]]
            + [repr(float(r[f"measured_{q}"])) for q in ("p_out", "mean_burst", "mean_ioi")]
            for r in rows
        ]
        return hashlib.sha256(json.dumps(values).encode()).hexdigest()[:16]

    @staticmethod
    def analytic(rows) -> list[float]:
        return [float(rows[0][f"analytic_{q}"]) for q in ("p_out", "mean_burst", "mean_ioi")]

    def failed_items(self, outputs):
        """Reference values are recorded for a range of seeds only (see
        README); the other checks apply to every seed."""
        reference = load_reference("convergence")["seeds"].get(str(self.seed))
        failed = {pid for pid in outputs if pid >= self.n_policies}
        for pid in range(self.n_policies):
            rows = outputs.get(pid, [])
            if [int(r["checkpoint"]) for r in rows] != CHECKPOINTS or not self._policy_ok(
                rows, None if reference is None else (reference["analytic"][pid], reference["measured"][pid])
            ):
                failed.add(pid)
        return failed

    def _policy_ok(self, rows, expected) -> bool:
        p_out, mean_burst, mean_ioi = self.analytic(rows)
        if any(self.analytic([r]) != [p_out, mean_burst, mean_ioi] for r in rows):
            return False
        if not _gap_ok(p_out, (1.0 - p_out) / mean_ioi, mean_burst):
            return False
        for r in rows:
            measured = float(r["measured_p_out"])
            outages = measured * int(r["checkpoint"])
            if abs(outages - round(outages)) > 1e-6:
                return False
            if float(r["err_p_out"]) != abs(measured - p_out) / p_out:
                return False
        if expected is None:
            return True
        return (
            all(close(v, e) for v, e in zip((p_out, mean_burst, mean_ioi), expected[0]))
            and self.measured_digest(rows) == expected[1]
        )


class Analytic:
    """No simulation: per preset, `optimize` for 4 penalties x 10 seeds drawn
    from the workload seed, then `burst_stats` on each penalty's best
    policy, the naive and min-error policies, and 200 random policies."""

    name = "analytic"
    seed_varies_inputs = True
    n_opt_seeds = 10
    n_random = 200
    named = tuple(k.value for k in PenaltyKind) + ("naive", "min-error")
    items = len(PRESETS) * (len(PenaltyKind) * n_opt_seeds + len(named) + n_random)

    def __init__(self, seed: int, outdir: Path):
        rng = np.random.default_rng(seed)
        self.opt_seeds = [int(s) for s in rng.integers(0, 2**32, size=self.n_opt_seeds)]
        self.cases = []
        for preset in PRESETS:
            cfg = scenarios.load_scenario(preset).system
            policies = rng.integers(0, cfg.link.blocklength_total + 1, size=(self.n_random, cfg.n_states))
            self.cases.append((preset, policies))

    def warm_up(self):
        cfg = scenarios.load_scenario(PRESETS[0]).system
        tables = TransitionTables(cfg)
        burstiness.burst_stats(cfg, optimize(cfg, PenaltyKind.BINARY_OUTAGE, 0, tables=tables).final_policy, tables=tables)

    def run(self):
        out = {}
        for preset, policies in self.cases:
            scenario = scenarios.load_scenario(preset)
            cfg = scenario.system
            tables = TransitionTables(cfg)
            named = {}
            for kind in PenaltyKind:
                best = None
                for seed in self.opt_seeds:
                    try:
                        report = optimize(cfg, kind, seed, scenario.optimizer.max_iter, tables=tables)
                    except Exception as exc:  # a failed item is counted, the workload goes on
                        out[preset, kind.value, seed] = exc.with_traceback(None)
                        continue
                    out[preset, kind.value, seed] = report.best_p_out
                    if best is None or report.best_p_out < best.best_p_out:
                        best = report
                if best is not None:
                    named[kind.value] = best.final_policy
            named["naive"] = naive_policy(cfg)
            named["min-error"] = min_error_policy(cfg, tables=tables)
            evaluations = list(named.items()) + [(f"random-{k}", p) for k, p in enumerate(policies)]
            for label, policy in evaluations:
                try:
                    out[preset, label] = burstiness.burst_stats(cfg, policy, tables=tables)
                except Exception as exc:  # a failed item is counted, the workload goes on
                    out[preset, label] = exc.with_traceback(None)
        return out

    def collect(self, out):
        return {key: value if isinstance(value, (float, Exception)) else _burst_fields(value)
                for key, value in out.items()}

    def all_keys(self):
        for preset, _ in self.cases:
            for kind in PenaltyKind:
                for seed in self.opt_seeds:
                    yield preset, kind.value, seed
            for label in self.named + tuple(f"random-{k}" for k in range(self.n_random)):
                yield preset, label

    def failed_items(self, outputs):
        reference = load_reference("analytic")
        failed = {k for k in self.all_keys() if not isinstance(outputs.get(k), (float, dict))}
        for preset, policies in self.cases:
            cfg = scenarios.load_scenario(preset).system
            oracle = ExactBurst(cfg)
            ref = reference[preset]
            for kind in PenaltyKind:
                p_outs = [outputs.get((preset, kind.value, s)) for s in self.opt_seeds]
                p_outs = [p for p in p_outs if isinstance(p, float)]
                if not p_outs or not close(min(p_outs), ref["best_p_out"][kind.value]):
                    failed.add((preset, kind.value))
            for label in self.named:
                fields = outputs.get((preset, label))
                if isinstance(fields, dict) and not _fields_match(fields, ref["burst_stats"][label]):
                    failed.add((preset, label))
            named_policies = {"naive": naive_policy(cfg), "min-error": min_error_policy(cfg)}
            checks = [(f"random-{k}", p) for k, p in enumerate(policies)] + list(named_policies.items())
            for label, policy in checks:
                fields = outputs.get((preset, label))
                if isinstance(fields, dict) and not oracle.agrees(policy, fields):
                    failed.add((preset, label))
        return failed


def _burst_fields(stats) -> dict:
    return {
        "defined": stats.defined,
        "p_out": stats.p_out,
        "xi_res_out_1": stats.xi_res_out_1,
        "mean_outage_duration": stats.mean_outage_duration,
        "mean_ioi": stats.mean_ioi,
        "truncation_t": stats.truncation_t,
    }


def _fields_match(fields: dict, ref: dict) -> bool:
    return fields["defined"] and all(
        close(fields[k], ref[k]) for k in ("p_out", "xi_res_out_1", "mean_outage_duration", "mean_ioi")
    ) and _gap_ok(fields["p_out"], fields["xi_res_out_1"], fields["mean_outage_duration"])


class ExactBurst:
    """Independent oracle for burst statistics of one preset.

    The chain is assembled by a scatter over the four age branches, the
    stationary law comes from a least-squares solve, and the mean burst
    length from the absorbing-chain fundamental matrix (I - P_OO)^-1
    (Kemeny & Snell), so no truncated series is involved.
    """

    def __init__(self, cfg):
        self.cfg = cfg
        n = cfg.link.blocklength_total
        alloc = np.arange(n + 1)
        d = cfg.link.payload_bits
        self.eps = (block_error_rate(alloc, d, cfg.profile.gamma_bad),
                    block_error_rate(alloc, d, cfg.profile.gamma_good))
        idx = np.arange(cfg.n_states)
        self.idx = idx
        self.x2, self.x1 = idx & 1, (idx >> 1) & 1
        self.a1, self.a2 = (idx >> 2) // cfg.a_max + 1, (idx >> 2) % cfg.a_max + 1
        al1, al2 = cfg.profile.alpha_1, cfg.profile.alpha_2
        self.bits = np.array([(1 - al1) * (1 - al2), (1 - al1) * al2, al1 * (1 - al2), al1 * al2])
        self.out = (self.a1 > cfg.a_out) | (self.a2 > cfg.a_out)

    def matrix(self, policy) -> np.ndarray:
        cfg, n = self.cfg, self.cfg.link.blocklength_total
        lam = np.asarray(policy, dtype=np.int64)
        e1 = np.where(self.x1 == 1, self.eps[1][lam], self.eps[0][lam])
        e2 = np.where(self.x2 == 1, self.eps[1][n - lam], self.eps[0][n - lam])
        p = np.zeros((cfg.n_states, cfg.n_states))
        for age1, q1 in ((np.ones_like(self.a1), 1 - e1), (np.minimum(self.a1 + 1, cfg.a_max), e1)):
            for age2, q2 in ((np.ones_like(self.a2), 1 - e2), (np.minimum(self.a2 + 1, cfg.a_max), e2)):
                base = 4 * ((age1 - 1) * cfg.a_max + (age2 - 1))
                for b in range(4):
                    np.add.at(p, (self.idx, base + b), q1 * q2 * self.bits[b])
        return p

    def stats(self, policy) -> tuple[float, float, float]:
        """(p_out, mean burst length, mean interval between bursts)."""
        p = self.matrix(policy)
        k = p.shape[0]
        a = np.vstack([p.T - np.eye(k), np.ones(k)])
        rhs = np.zeros(k + 1)
        rhs[-1] = 1.0
        pi = np.linalg.lstsq(a, rhs, rcond=None)[0]
        out = self.out
        entry = ((pi * ~out) @ p)[out]
        xi1 = entry.sum()
        p_out = pi[out].sum()
        p_oo = p[np.ix_(out, out)]
        visits = np.linalg.solve(np.eye(out.sum()) - p_oo, np.ones(out.sum()))
        return float(p_out), float(entry @ visits / xi1), float((1.0 - p_out) / xi1)

    def agrees(self, policy, fields: dict) -> bool:
        if not fields["defined"]:
            return False
        exact = self.stats(policy)
        got = (fields["p_out"], fields["mean_outage_duration"], fields["mean_ioi"])
        return all(close(g, e, ORACLE_REL_TOL) for g, e in zip(got, exact)) and _gap_ok(
            fields["p_out"], fields["xi_res_out_1"], fields["mean_outage_duration"]
        )


WORKLOADS = {w.name: w for w in (Table2, Convergence, Analytic)}
