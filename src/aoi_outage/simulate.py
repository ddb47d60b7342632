"""Seeded discrete-time simulation of the two-device uplink.

The simulator drives exactly the same chain as the analytic machinery:
allocations come from the policy at the current state, error rates use the
current state's channel bits, and fresh bits only select the next period's
SNR. Randomness comes from numpy's default PCG64 generator; one uniform
draw per period and quantity, in the fixed column order (device-1 failure,
device-2 failure, device-1 next bit, device-2 next bit), so results are
bit-reproducible given (config, policy, periods, seed). Many (policy, seed)
rows advance in lockstep, one numpy step per period; each row's result is
the same as a one-row run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .burstiness import BurstStats, DURATION_CONVENTION
from .markov import TransitionTables, validate_policy
from .states import SystemConfig, SystemState, index_to_state


def derive_seed(master_seed: int, *key: int) -> int:
    """Deterministic child seed: the first 64-bit state word of numpy's
    SeedSequence(master_seed, spawn_key=key)."""
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, np.uint64)[0])


def repetition_seed(master_seed: int, rep: int) -> int:
    """Per-repetition seed used by run_repetitions."""
    return derive_seed(master_seed, rep)


@dataclass
class SimResult:
    periods: int
    outage_count: int
    outage_rate: float
    burst_durations: list[int]
    ioi_durations: list[int]
    mean_burst: float  # nan when no complete burst was observed
    mean_ioi: float
    seed: int
    final_state: SystemState
    outage_sequence: np.ndarray = field(repr=False)


def measure_bursts(outage_sequence, convention: str = DURATION_CONVENTION):
    """Split an outage indicator sequence into maximal runs.

    Returns (burst_durations, ioi_durations). Runs touching either end of
    the sequence are discarded from both lists as boundary-truncated.
    Convention "outage-periods" counts a burst as its number of outage
    periods; "excursion" also counts the recovery period (length + 1).
    """
    if convention not in ("outage-periods", "excursion"):
        raise ValueError(f"unknown duration convention: {convention!r}")
    seq = np.asarray(outage_sequence, dtype=bool)
    bursts: list[int] = []
    iois: list[int] = []
    n = seq.size
    if n == 0:
        return bursts, iois
    change = np.flatnonzero(seq[1:] != seq[:-1]) + 1
    starts = np.concatenate(([0], change))
    ends = np.concatenate((change, [n]))
    for s, e in zip(starts, ends):
        if s == 0 or e == n:
            continue  # truncated by the observation window
        (bursts if seq[s] else iois).append(int(e - s))
    if convention == "excursion":
        bursts = [b + 1 for b in bursts]
    return bursts, iois


#: Periods of uniforms drawn per row at a time. The draw buffer holds
#: rows x DRAW_CHUNK x 4 doubles whatever the horizon.
DRAW_CHUNK = 128


def _lockstep(t: TransitionTables, policies: np.ndarray, periods: int, seeds) -> tuple[np.ndarray, np.ndarray]:
    """Advance R independent rows of the chain together, one numpy step per
    period. Row r follows policies[r] from the initial state and consumes
    default_rng(seeds[r]).random((periods, 4)), drawn DRAW_CHUNK periods at a
    time. Returns the (R, periods) outage indicators and each row's final
    0-based state index.

    A row's state is held as the global index r * n_states + s, so the
    per-row error-rate and successor tables are single flat lookups.
    """
    cfg = t.cfg
    n_states = cfg.n_states
    rows = len(seeds)
    eps_bad, eps_good = t.eps_by_bit
    # error rates of the transition out of each (row, state), policy applied once
    e1 = np.where(t.x1 == 1, eps_good[policies], eps_bad[policies]).ravel()
    e2 = np.where(t.x2 == 1, eps_good[t.n_total - policies], eps_bad[t.n_total - policies]).ravel()
    # successor with channel bits (0, 0), at position 4 * s + 2 * fail1 + fail2
    fail1, fail2 = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])
    succ = t.row_base(
        np.where(fail1, t.succ_a1[:, None], 1), np.where(fail2, t.succ_a2[:, None], 1)
    ).ravel()
    offset = np.arange(rows) * n_states
    succ = (succ + offset[:, None]).ravel()
    out = np.tile(t.outage, rows)

    rngs = [np.random.default_rng(seed) for seed in seeds]
    draws = np.empty((rows, DRAW_CHUNK, 4))
    visited = np.empty((DRAW_CHUNK, rows), dtype=np.int64)
    outage = np.empty((rows, periods), dtype=bool)
    g = offset + (cfg.initial_index - 1)
    for start in range(0, periods, DRAW_CHUNK):
        m = min(DRAW_CHUNK, periods - start)
        for rng, buf in zip(rngs, draws):
            rng.random(out=buf[:m])
        u = draws[:, :m].transpose(1, 2, 0)  # (period, column, row)
        fail_u1, fail_u2 = u[:, 0], u[:, 1]
        bits = 2 * (u[:, 2] < cfg.profile.alpha_1) + (u[:, 3] < cfg.profile.alpha_2)
        for j in range(m):
            g = succ[4 * g + 2 * (fail_u1[j] < e1[g]) + (fail_u2[j] < e2[g])] + bits[j]
            visited[j] = g
        outage[:, start : start + m] = out[visited[:m]].T
    return outage, g - offset


def simulate_many(
    cfg: SystemConfig,
    policies,
    periods: int,
    seeds,
    *,
    tables: TransitionTables | None = None,
    convention: str = DURATION_CONVENTION,
) -> list[SimResult]:
    """Simulate one row per (policies[r], seeds[r]) pair for `periods`
    periods from cfg.initial_state. Row r equals
    simulate(cfg, policies[r], periods, seeds[r]); all rows advance in
    lockstep."""
    if periods < 1:
        raise ValueError(f"periods must be >= 1, got {periods}")
    if len(policies) != len(seeds):
        raise ValueError(f"got {len(policies)} policies for {len(seeds)} seeds")
    if len(seeds) == 0:
        raise ValueError("need at least one policy and seed")
    pols = np.stack([validate_policy(p, cfg) for p in policies])
    t = tables if tables is not None else TransitionTables(cfg)
    outage, final = _lockstep(t, pols, periods, seeds)
    results = []
    for seq, seed, state in zip(outage, seeds, final):
        bursts, iois = measure_bursts(seq, convention)
        count = int(seq.sum())
        results.append(SimResult(
            periods=periods,
            outage_count=count,
            outage_rate=count / periods,
            burst_durations=bursts,
            ioi_durations=iois,
            mean_burst=float(np.mean(bursts)) if bursts else float("nan"),
            mean_ioi=float(np.mean(iois)) if iois else float("nan"),
            seed=seed,
            final_state=index_to_state(int(state) + 1, cfg.a_max),
            outage_sequence=seq,
        ))
    return results


def simulate(
    cfg: SystemConfig,
    policy,
    periods: int,
    seed: int,
    *,
    tables: TransitionTables | None = None,
    convention: str = DURATION_CONVENTION,
) -> SimResult:
    """Simulate the chain for `periods` periods from cfg.initial_state."""
    return simulate_many(cfg, [policy], periods, [seed], tables=tables, convention=convention)[0]


@dataclass
class RepetitionSummary:
    reps: int
    periods: int
    master_seed: int
    outage_rates: np.ndarray
    outage_rate_mean: float
    outage_rate_std: float  # sample std (ddof=1), 0 for a single repetition
    burst_durations: list[int]
    ioi_durations: list[int]
    mean_burst: float
    mean_ioi: float
    results: list[SimResult] = field(repr=False, default_factory=list)
    err_p_out: float | None = None
    err_mean_burst: float | None = None
    err_mean_ioi: float | None = None


def run_repetitions(
    cfg: SystemConfig,
    policy,
    reps: int,
    periods: int,
    master_seed: int,
    *,
    analytic: BurstStats | None = None,
    tables: TransitionTables | None = None,
    convention: str = DURATION_CONVENTION,
) -> RepetitionSummary:
    """Independent repetitions with index-derived seeds, pooled statistics,
    and optional normalized errors against analytic predictions."""
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    seeds = [repetition_seed(master_seed, r) for r in range(reps)]
    results = simulate_many(cfg, [policy] * reps, periods, seeds, tables=tables, convention=convention)
    rates = np.array([r.outage_rate for r in results])
    bursts: list[int] = []
    iois: list[int] = []
    for r in results:
        bursts.extend(r.burst_durations)
        iois.extend(r.ioi_durations)
    mean_burst = float(np.mean(bursts)) if bursts else float("nan")
    mean_ioi_v = float(np.mean(iois)) if iois else float("nan")
    summary = RepetitionSummary(
        reps=reps,
        periods=periods,
        master_seed=master_seed,
        outage_rates=rates,
        outage_rate_mean=float(rates.mean()),
        outage_rate_std=float(rates.std(ddof=1)) if reps > 1 else 0.0,
        burst_durations=bursts,
        ioi_durations=iois,
        mean_burst=mean_burst,
        mean_ioi=mean_ioi_v,
        results=results,
    )
    if analytic is not None and analytic.defined:
        summary.err_p_out = _normalized_error(summary.outage_rate_mean, analytic.p_out)
        summary.err_mean_burst = _normalized_error(mean_burst, analytic.mean_outage_duration)
        summary.err_mean_ioi = _normalized_error(mean_ioi_v, analytic.mean_ioi)
    return summary


def _normalized_error(measured: float, predicted: float | None) -> float:
    """|measured - predicted| / predicted; nan when either side is unusable."""
    if predicted is None or predicted <= 0.0 or not np.isfinite(measured):
        return float("nan")
    return abs(measured - predicted) / predicted
