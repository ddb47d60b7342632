"""Run-length statistics of stationary outage excursions.

One analysis, chain_burst_stats, serves every burstiness quantity of a
chain from its stationary distribution pi and the burst-start flow u, the
one-step flow from the complement into the outage set (its mass xi1 is the
rate at which bursts start). A masked walk u <- (u * out) @ p follows the
mass of a burst while it stays in outage; what leaves the set at step t is
the burst-length pmf at t. The mean burst length is exact: u times the
expected outage visits before escape, (I - P_OO)^-1 1, from the
absorbing-chain fundamental matrix (Kemeny & Snell, Finite Markov Chains),
over xi1. Only the pmf is truncated. The mean interval between bursts is
(1 - p_out) / xi1, and the product identity p_out = xi1 * mean length
cross-checks the stationary outage rate to solver precision. burst_stats
runs the same analysis on the age chain a policy induces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .markov import TransitionTables, build_transition_matrix, steady_state
from .states import SystemConfig

SERIES_TOLERANCE = 1e-12
SERIES_CAP = 10_000
IDENTITY_TOL = 1e-9

#: Burst length counts the outage periods of an excursion, not the
#: recovery period that ends it.
DURATION_CONVENTION = "outage-periods"


@dataclass
class BurstStats:
    """Analytic outage burstiness of one chain.

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


def _duration_walk(u, p, out, xi1: float) -> np.ndarray:
    """Burst-length pmf from the masked walk u <- (u * out) @ p started at
    the entry flow u: pmf[t - 1] is the mass escaping at step t over xi1.
    The walk stops one step after the mass still in outage falls below
    SERIES_TOLERANCE of xi1, or at SERIES_CAP steps."""
    res = ~out
    pmf = []
    last = False
    while not last:
        last = float(u[out].sum()) / xi1 < SERIES_TOLERANCE or len(pmf) + 1 >= SERIES_CAP
        u = (u * out) @ p
        pmf.append(u[res].sum() / xi1)
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


def chain_burst_stats(p, out) -> BurstStats:
    """Full analytic burstiness record of the chain p with the boolean
    outage mask out.

    Recomputes the outage rate two ways (stationary mass, and entry flow
    times mean duration) and raises if the two disagree beyond
    IDENTITY_TOL. When no stationary flow enters the outage set (it is
    empty, or holds all the stationary mass) the record is undefined.
    """
    p = np.asarray(p, dtype=float)
    out = np.asarray(out, dtype=bool)
    pi = steady_state(p)
    p_out = float(pi[out].sum())
    u = (pi * ~out) @ p
    xi1 = float(u[out].sum())
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
    mean_dur = _exact_mean(u, p, out, xi1)
    pmf = _duration_walk(u, p, out, xi1)
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


def burst_stats(
    cfg: SystemConfig, policy, *, tables: TransitionTables | None = None
) -> BurstStats:
    """Burstiness record for one policy: chain_burst_stats of the age chain
    it induces, with the config's outage set."""
    t = tables if tables is not None else TransitionTables(cfg)
    return chain_burst_stats(build_transition_matrix(cfg, policy, tables=t), t.outage)
