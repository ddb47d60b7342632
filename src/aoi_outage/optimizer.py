"""Allocation-policy optimizer with pluggable penalties.

The paper's recursive optimizer alternates two steps: solve the stationary
distribution of the chain induced by the current policy, then re-pick each
state's allocation to minimize a per-state penalty weighted by that
distribution. The per-state penalty is pi[i] * f(i, lam), where f is the
expected successor weight and does not depend on pi. A positive factor does
not move an argmin, so the sweep minimizes f alone and has no pi: every
state with stationary mass gets the allocation the recursion would give it,
the first sweep is already the fixed point, and the recursion reduces to
one sweep plus one score of its policy. The score is the stationary outage
rate of burstiness.burst_stats_many, the one path every command scores a
policy by.

There is deliberately no second solve-and-sweep to "settle" states with
zero stationary mass. Weighted by a solved pi, such states tie at every
allocation and the recursion sends them to allocation 0. That can strand a
device: the states become a second closed class, the chain is no longer
ergodic, and the next stationary solve fails or scores the wrong class.
The unweighted sweep gives every state its own argmin instead.

The sweep is array work over the age-level transition law in
TransitionTables: one pass per channel-bit pair scores every allocation of
every age position against the successor weights of its four branches.

Two benchmark generators are included: the equal split and the per-state
minimizer of the summed transmission error rates.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .burstiness import burst_stats_many
from .markov import TransitionTables, branch_probabilities, transition_tables
from .states import SystemConfig


class PenaltyKind(Enum):
    BINARY_OUTAGE = "binary"
    MEAN_SUM_AOI = "sum-aoi"
    MEAN_PEAK_AOI = "peak-aoi"
    EXP_MEAN_PEAK_AOI = "exp-peak-aoi"


@dataclass
class OptimizeReport:
    """Outcome of one optimizer run. final_policy is the sweep's policy and
    best_p_out its analytic outage rate. convergence_trace rows are
    (iteration, metric, p_out); a run has the single row (1, 0.0, p_out)."""

    final_policy: np.ndarray
    iterations: int
    convergence_trace: list[tuple[int, float, float]]
    best_p_out: float


def _age_weight_grid(kind: PenaltyKind, t: TransitionTables) -> np.ndarray:
    """Successor weight w(a1', a2') of each penalty over the age positions;
    the fresh channel bits never enter it, so their factors sum out to 1."""
    if kind is PenaltyKind.BINARY_OUTAGE:
        return t.outage.astype(float)
    a1, a2 = t.ages
    if kind is PenaltyKind.MEAN_SUM_AOI:
        return (a1 + a2).astype(float)
    if kind is PenaltyKind.MEAN_PEAK_AOI:
        return np.maximum(a1, a2).astype(float)
    if kind is PenaltyKind.EXP_MEAN_PEAK_AOI:
        return np.exp(np.maximum(a1, a2))
    raise ValueError(f"unknown penalty kind: {kind!r}")


def improve_policy(cfg: SystemConfig, kind: PenaltyKind) -> np.ndarray:
    """Per-state argmin over every allocation 0..N of the expected successor
    weight sum_b branch_b(lam) * w(succ[g, b]).

    The branch probabilities depend on the state only through its channel
    bits k, so the pass for k forms them over all allocations once and
    scores every age position g with them, giving column k of the
    (a_max**2, 4) policy. The sweep is exhaustive by design (the error-rate
    sum need not be unimodal near the extremes). Ties break to the smallest
    allocation.
    """
    t = transition_tables(cfg)
    w = _age_weight_grid(kind, t)[t.succ.T, None]  # w[b]: (a_max**2, 1) successor weights
    new = np.empty((cfg.a_max**2, 4), dtype=np.int64)  # [g, k]
    for k, (x1, x2) in enumerate(t.bits):
        branch = branch_probabilities(t.eps_by_bit[x1], t.eps2_by_bit[x2])  # over lam
        # summed in place, in branch order: a fresh (a_max**2, N + 1) array per sum costs page faults
        cost = branch[0] * w[0]
        for b in range(1, 4):
            cost += branch[b] * w[b]
        new[:, k] = np.argmin(cost, axis=1)
    return new.ravel()


def optimize(
    cfg: SystemConfig,
    kind: PenaltyKind,
    seed: int,
    max_iter: int = 200,
    *,
    tables=None,
) -> OptimizeReport:
    """Fixed point of the recursive optimizer: one sweep, scored through the
    burst analysis (burst_stats_many of one).

    The sweep has no stationary weights. Since the per-state penalty is the
    state's stationary mass times a term free of it, its policy is the one
    the recursion settles on whenever its solved pi is positive everywhere
    (see the module docstring), and it gives zero-mass states their own
    argmin rather than allocation 0.

    seed and tables are not read, and max_iter is only checked to be >= 1:
    none of them changes the result. They stay for callers that pass them;
    the tables come from transition_tables(cfg).
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    lam = improve_policy(cfg, kind)
    p_out = burst_stats_many(cfg, [lam])[0].p_out
    return OptimizeReport(
        final_policy=lam, iterations=1, convergence_trace=[(1, 0.0, p_out)], best_p_out=p_out
    )


def naive_policy(cfg: SystemConfig) -> np.ndarray:
    """Equal split: every state allocates floor(N/2) to device 1."""
    return np.full(cfg.n_states, cfg.link.blocklength_total // 2, dtype=np.int64)


def min_error_policy(cfg: SystemConfig, *, tables=None) -> np.ndarray:
    """Per-state minimizer of the summed error rates eps1(lam) + eps2(N - lam).

    The objective has no age term, so the allocation depends only on the
    channel bits; ties break to the smallest allocation. tables is not
    read: the tables come from transition_tables(cfg).
    """
    t = transition_tables(cfg)
    by_bits = [np.argmin(t.eps_by_bit[x1] + t.eps2_by_bit[x2]) for x1, x2 in t.bits]
    return np.tile(np.array(by_bits, dtype=np.int64), cfg.a_max**2)
