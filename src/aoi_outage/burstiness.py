"""Run-length statistics of stationary outage excursions.

All quantities derive from a masked k-step recursion: the probability of
walking from state i to state j in exactly k steps with every intermediate
state inside the outage set. Aggregating it over source/destination sets
with stationary source weights yields the burst-duration distribution, the
mean burst length, the mean interval between bursts, and a product identity
that cross-checks the stationary outage rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .markov import TransitionTables, build_transition_matrix, outage_probability, steady_state
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


def outage_duration_pmf(pi, p, cfg, t_max: int) -> np.ndarray:
    """P(burst lasts exactly t outage periods) for t = 1..t_max, conditioned
    on a burst starting."""
    if t_max < 1:
        raise ValueError(f"t_max must be >= 1, got {t_max}")
    pi = np.asarray(pi, dtype=float)
    p = np.asarray(p, dtype=float)
    out = _resolve_mask(cfg, p.shape[0])
    u, xi1 = _entry_flow(pi, p, out)
    if xi1 <= 0.0:
        raise OutageUnreachableError("no stationary flow into the outage set")
    res = ~out
    pmf = np.empty(t_max)
    for t in range(1, t_max + 1):
        u = (u * out) @ p
        pmf[t - 1] = u[res].sum() / xi1
    return pmf


def _duration_series(pi, p, out, tolerance: float) -> tuple[float, int]:
    """Mean burst length as the tail-sum series, truncated once the term
    drops below tolerance relative to the entry flow, with a geometric tail
    estimate from the last two terms. Returns (mean, stop_t)."""
    u, xi1 = _entry_flow(pi, p, out)
    if xi1 <= 0.0:
        raise OutageUnreachableError("no stationary flow into the outage set")
    total = xi1
    prev = xi1
    t = 1
    term = 0.0
    while True:
        u = (u * out) @ p
        term = float(u[out].sum())
        t += 1
        if term > prev:
            raise RuntimeError(
                f"outage-return series grows at t={t} ({term:.3e} > {prev:.3e}); chain is broken"
            )
        total += term
        # at the cap, keep prev: the tail ratio needs the last two distinct terms
        if term / xi1 < tolerance or t >= SERIES_CAP:
            break
        prev = term
    if term > 0.0 and prev > 0.0:
        rho = term / prev
        if rho >= 1.0:
            raise RuntimeError("outage-return series does not decay; mean duration diverges")
        total += term * rho / (1.0 - rho)
    return total / xi1, t


def mean_outage_duration(pi, p, cfg, tolerance: float = SERIES_TOLERANCE) -> float:
    """Expected number of consecutive outage periods per burst; always >= 1."""
    p = np.asarray(p, dtype=float)
    out = _resolve_mask(cfg, p.shape[0])
    mean, _ = _duration_series(np.asarray(pi, float), p, out, tolerance)
    return mean


def mean_ioi(pi, p, cfg) -> float:
    """Expected interval between bursts: (1 - p_out) / entry flow; >= 1."""
    p = np.asarray(p, dtype=float)
    out = _resolve_mask(cfg, p.shape[0])
    pi = np.asarray(pi, dtype=float)
    _, xi1 = _entry_flow(pi, p, out)
    if xi1 <= 0.0:
        raise OutageUnreachableError("no stationary flow into the outage set")
    p_out = float(pi[out].sum())
    return (1.0 - p_out) / xi1


def burst_stats(
    cfg: SystemConfig,
    policy,
    *,
    tolerance: float = SERIES_TOLERANCE,
    tables: TransitionTables | None = None,
) -> BurstStats:
    """Full analytic burstiness record for one policy.

    Recomputes the outage rate two ways (stationary mass, and entry flow
    times mean duration) and raises if the two disagree beyond 1e-9.
    """
    p = build_transition_matrix(cfg, policy, tables=tables)
    pi = steady_state(p)
    p_out = outage_probability(pi, cfg)
    out = outage_mask(cfg.a_max, cfg.a_out)
    if not out.any():
        return BurstStats(
            p_out=p_out,
            xi_res_out_1=0.0,
            mean_outage_duration=None,
            mean_ioi=None,
            duration_pmf=None,
            truncation_t=0,
            truncation_residual=None,
            defined=False,
        )
    _, xi1 = _entry_flow(pi, p, out)
    if xi1 <= 0.0:
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
    mean_dur, stop_t = _duration_series(pi, p, out, tolerance)
    pmf = outage_duration_pmf(pi, p, cfg, stop_t)
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
        mean_ioi=mean_ioi(pi, p, cfg),
        duration_pmf=pmf,
        truncation_t=stop_t,
        truncation_residual=residual,
    )
