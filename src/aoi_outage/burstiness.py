"""Run-length statistics of stationary outage excursions.

The burst-duration distribution derives from a masked k-step recursion: the
probability of walking from state i to state j in exactly k steps with every
intermediate state inside the outage set. Aggregating it over
source/destination sets with stationary source weights yields the
burst-duration pmf and the mean interval between bursts. The mean burst
length is exact: the burst-start flow times the expected outage visits
before escape, (I - P_OO)^-1 1, from the absorbing-chain fundamental matrix
(Kemeny & Snell, Finite Markov Chains). Only the pmf is truncated. The
product identity p_out = entry flow * mean length cross-checks the
stationary outage rate to solver precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .markov import TransitionTables, build_transition_matrix, steady_state
from .states import SystemConfig, outage_mask

SERIES_TOLERANCE = 1e-12
SERIES_CAP = 10_000
IDENTITY_TOL = 1e-9

#: Burst length counts the outage periods of an excursion. The alternative
#: "excursion" convention also counts the recovery period (length + 1).
DURATION_CONVENTION = "outage-periods"


class OutageUnreachableError(ValueError):
    """Outage set is empty or carries no inbound stationary flow."""


@dataclass
class BurstStats:
    """Analytic outage burstiness under one policy.

    When the outage set is empty or unreachable the record is tagged
    undefined and the duration fields are None instead of NaN.
    """

    p_out: float
    xi_res_out_1: float
    mean_outage_duration: float | None
    mean_ioi: float | None
    duration_pmf: np.ndarray | None
    truncation_t: int
    truncation_residual: float | None
    defined: bool = True
    convention: str = DURATION_CONVENTION


def xi_matrix(p, outage_mask_vec, k: int) -> np.ndarray:
    """Masked k-step matrix: entry (i, j) is the probability of reaching j
    from i in exactly k steps through outage-only intermediate states.
    k = 1 is the plain transition matrix (no intermediate state exists)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    p = np.asarray(p, dtype=float)
    mask = np.asarray(outage_mask_vec, dtype=bool)
    xi = p.copy()
    for _ in range(k - 1):
        xi = p @ (xi * mask[:, None])
    return xi


def _masked_flow(pi, p, src_mask, out_mask, k: int) -> np.ndarray:
    """Source-weighted row vector after k steps of the masked recursion."""
    u = (pi * src_mask) @ p
    for _ in range(k - 1):
        u = (u * out_mask) @ p
    return u


def _resolve_mask(cfg_or_mask, n_states: int) -> np.ndarray:
    """The set-level functions accept a SystemConfig or, for hand-built
    chains of any size, an explicit boolean outage mask."""
    if isinstance(cfg_or_mask, SystemConfig):
        return outage_mask(cfg_or_mask.a_max, cfg_or_mask.a_out)
    mask = np.asarray(cfg_or_mask, dtype=bool)
    if mask.shape != (n_states,):
        raise ValueError(f"outage mask must have shape ({n_states},), got {mask.shape}")
    return mask


def xi_set_to_set(pi, p, from_outage: bool, to_outage: bool, k: int, cfg) -> float:
    """Stationary-weighted mass of masked k-step walks between the outage
    set and its complement, selected by the two boolean flags."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    p = np.asarray(p, dtype=float)
    out = _resolve_mask(cfg, p.shape[0])
    src = out if from_outage else ~out
    dst = out if to_outage else ~out
    pi = np.asarray(pi, dtype=float)
    u = _masked_flow(pi, p, src, out, k)
    return float(u[dst].sum())


def _entry_flow(pi, p, out):
    """One-step flow from the complement into the outage set (burst starts)."""
    u = (pi * ~out) @ p
    return u, float(u[out].sum())


def _burst_start(pi, p, cfg):
    """Coerced (pi, p, mask) plus the entry flow and its mass for the
    hand-chain functions; raises when no flow enters the outage set."""
    p = np.asarray(p, dtype=float)
    out = _resolve_mask(cfg, p.shape[0])
    pi = np.asarray(pi, dtype=float)
    u, xi1 = _entry_flow(pi, p, out)
    if xi1 <= 0.0:
        raise OutageUnreachableError("no stationary flow into the outage set")
    return pi, p, out, u, xi1


def _duration_walk(u, p, out, xi1: float, t_max: int | None) -> np.ndarray:
    """Burst-length pmf from the masked walk u <- (u * out) @ p started at
    the entry flow u: pmf[t - 1] is the mass escaping at step t over xi1.
    With t_max None the walk stops one step after the mass still in outage
    falls below SERIES_TOLERANCE of xi1, or at SERIES_CAP steps."""
    res = ~out
    pmf = []
    while t_max is None or len(pmf) < t_max:
        u = (u * out) @ p
        pmf.append(u[res].sum() / xi1)
        if t_max is None and (
            float(u[out].sum()) / xi1 < SERIES_TOLERANCE or len(pmf) + 1 >= SERIES_CAP
        ):
            t_max = len(pmf) + 1
    return np.array(pmf)


def _exact_mean(u, p, out, xi1: float) -> float:
    """Mean burst length: the entry flow times the expected outage visits
    before escape, (I - P_OO)^-1 1, over xi1."""
    p_oo = p[np.ix_(out, out)]
    try:
        visits = np.linalg.solve(np.eye(len(p_oo)) - p_oo, np.ones(len(p_oo)))
    except np.linalg.LinAlgError:
        raise RuntimeError("outage set has no exit; mean duration diverges") from None
    return float(u[out] @ visits) / xi1


def outage_duration_pmf(pi, p, cfg, t_max: int) -> np.ndarray:
    """P(burst lasts exactly t outage periods) for t = 1..t_max, conditioned
    on a burst starting."""
    if t_max < 1:
        raise ValueError(f"t_max must be >= 1, got {t_max}")
    _, p, out, u, xi1 = _burst_start(pi, p, cfg)
    return _duration_walk(u, p, out, xi1, t_max)


def mean_outage_duration(pi, p, cfg) -> float:
    """Expected number of consecutive outage periods per burst; always >= 1."""
    _, p, out, u, xi1 = _burst_start(pi, p, cfg)
    return _exact_mean(u, p, out, xi1)


def mean_ioi(pi, p, cfg) -> float:
    """Expected interval between bursts: (1 - p_out) / entry flow; >= 1."""
    pi, _, out, _, xi1 = _burst_start(pi, p, cfg)
    return (1.0 - float(pi[out].sum())) / xi1


def burst_stats(
    cfg: SystemConfig, policy, *, tables: TransitionTables | None = None
) -> BurstStats:
    """Full analytic burstiness record for one policy.

    Recomputes the outage rate two ways (stationary mass, and entry flow
    times mean duration) and raises if the two disagree beyond 1e-9.
    """
    t = tables if tables is not None else TransitionTables(cfg)
    p = build_transition_matrix(cfg, policy, tables=t)
    pi = steady_state(p)
    out = t.outage
    p_out = float(pi[out].sum())
    u, xi1 = _entry_flow(pi, p, out)
    if xi1 <= 0.0:
        # empty outage set, or one that no stationary flow enters
        return BurstStats(
            p_out=p_out,
            xi_res_out_1=xi1,
            mean_outage_duration=None,
            mean_ioi=None,
            duration_pmf=None,
            truncation_t=0,
            truncation_residual=None,
            defined=False,
        )
    mean_dur = _exact_mean(u, p, out, xi1)
    pmf = _duration_walk(u, p, out, xi1, None)
    residual = max(0.0, 1.0 - float(pmf.sum()))
    identity_gap = abs(p_out - xi1 * mean_dur)
    if identity_gap >= IDENTITY_TOL:
        raise RuntimeError(
            f"outage-rate identity violated: |{p_out:.12e} - {xi1:.3e} * {mean_dur:.6f}| "
            f"= {identity_gap:.3e}"
        )
    return BurstStats(
        p_out=p_out,
        xi_res_out_1=xi1,
        mean_outage_duration=mean_dur,
        mean_ioi=(1.0 - p_out) / xi1,
        duration_pmf=pmf,
        truncation_t=len(pmf),
        truncation_residual=residual,
    )
