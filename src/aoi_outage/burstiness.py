"""Run-length statistics of stationary outage excursions.

One analysis, chain_burst_stats_many, serves every burstiness quantity of a
stack of chains from each chain's stationary distribution pi and burst-start
flow u, the one-step flow from the complement into the outage set (its mass
xi1 is the rate at which bursts start). The mean burst length is exact: the
expected outage visits before escape of a burst entering with flow u,
u_O (I - P_OO)^-1, from the absorbing-chain fundamental matrix (Kemeny &
Snell, Finite Markov Chains), summed and over xi1, with all the chains'
systems in one stacked state reduction. The mean interval between bursts is
(1 - p_out) / xi1, and the product identity p_out = xi1 * mean length
cross-checks the stationary outage rate to solver precision. The
burst-length pmf, the one truncated quantity, is walked when a record's
duration_pmf is first read, one chain and one step at a time: a masked
walk, u <- u P with the rows of P outside the outage set zeroed, follows the
mass of a burst while it stays in outage, and what leaves the set at step t
is the pmf at t. Every step is an elementwise product and a sum, as is the
rest of the analysis, so no BLAS kernel decides the last bits.
burst_stats_many runs the analysis on the age chains a batch of policies
induces. Every record is the same, bit for bit, whatever else is in its
batch, and chain_burst_stats and burst_stats are the batches of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .markov import _state_reduction, build_transition_matrices, steady_states, transition_tables
from .states import SystemConfig

SERIES_TOLERANCE = 1e-12
SERIES_CAP = 10_000
IDENTITY_TOL = 1e-9

#: Burst length counts the outage periods of an excursion, not the
#: recovery period that ends it.
DURATION_CONVENTION = "outage-periods"


@dataclass
class BurstStats:
    """Analytic outage burstiness of one chain. The pmf is walked on first
    read from walk (entry flow, chain, outage mask); the mean interval and
    the pmf's truncation point and leftover mass are derived when read.

    When the outage set is empty or unreachable the record is
    BurstStats(p_out, xi1): it is undefined and the duration fields are
    None instead of NaN.
    """

    p_out: float
    xi_res_out_1: float
    mean_outage_duration: float | None = None
    walk: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def defined(self) -> bool:
        return self.mean_outage_duration is not None

    @property
    def mean_ioi(self) -> float | None:
        return (1.0 - self.p_out) / self.xi_res_out_1 if self.defined else None

    @cached_property
    def duration_pmf(self) -> np.ndarray | None:
        return _duration_pmf(*self.walk, self.xi_res_out_1) if self.defined else None

    @property
    def truncation_t(self) -> int:
        return len(self.duration_pmf) if self.defined else 0

    @property
    def truncation_residual(self) -> float | None:
        return max(0.0, 1.0 - float(self.duration_pmf.sum())) if self.defined else None


def _exact_means(u, ps, out, xi1) -> np.ndarray:
    """Mean burst length of each chain of the stack ps: the expected outage
    visits before escape of a burst entering with flow u, u_O (I - P_OO)^-1,
    summed and over xi1. All the chains go in one stacked state reduction of
    P_OO bordered by the complement as state 0: row 0 is the entry flow u_O
    and column 0 each outage state's escape probability."""
    p_o = ps.compress(out, axis=1)
    system = np.zeros((len(ps), p_o.shape[1] + 1, p_o.shape[1] + 1))
    system[:, 0, 1:] = u.compress(out, axis=1)
    system[:, 1:, 0] = p_o.compress(~out, axis=2).sum(axis=2)
    system[:, 1:, 1:] = p_o.compress(out, axis=2)
    visits, pivots = _state_reduction(system)
    if (pivots[:, 1:] == 0.0).any():
        raise RuntimeError("outage set has no exit; mean duration diverges")
    return visits[:, 1:].sum(axis=1) / xi1


def _duration_pmf(u, p, out, xi1) -> np.ndarray:
    """Burst-length pmf of the chain p from the masked walk
    u <- sum_i (u * out)[i] p[i] started at its entry flow u: pmf[t - 1] is
    the mass escaping at step t over xi1. The walk stops one step after the
    mass still in outage falls below SERIES_TOLERANCE of xi1, or at
    SERIES_CAP steps."""
    rows = p.compress(out, axis=0)
    pmf = []
    while True:
        inside = u.compress(out)
        u = (inside[:, None] * rows).sum(axis=0)
        pmf.append(u.compress(~out).sum() / xi1)
        if inside.sum() / xi1 < SERIES_TOLERANCE or len(pmf) == SERIES_CAP:
            return np.array(pmf)


def chain_burst_stats_many(ps, out) -> list[BurstStats]:
    """Analytic burstiness record of each chain of the (B, n, n) stack ps,
    with the boolean outage mask out shared by all. The records keep their
    own copies of the chains and the mask for the pmf walk.

    Recomputes each outage rate two ways (stationary mass, and entry flow
    times mean duration) and raises for the first chain where the two
    disagree beyond IDENTITY_TOL. A chain into whose outage set no
    stationary flow enters (it is empty, or holds all the stationary mass)
    gets an undefined record. Each record is the same whatever the stack.
    """
    ps = np.array(ps, dtype=float)
    out = np.array(out, dtype=bool)
    pi = steady_states(ps)
    p_outs = pi.compress(out, axis=1).sum(axis=1)
    u = ((pi * ~out)[:, :, None] * ps).sum(axis=1)
    xi1s = u.compress(out, axis=1).sum(axis=1)
    defined = np.flatnonzero(xi1s > 0.0)
    records = [BurstStats(float(p), float(x)) for p, x in zip(p_outs, xi1s)]
    if defined.size == 0:
        return records
    means = _exact_means(u[defined], ps[defined], out, xi1s[defined])
    for c, mean_dur in zip(defined, means.tolist()):
        p_out, xi1 = records[c].p_out, records[c].xi_res_out_1
        identity_gap = abs(p_out - xi1 * mean_dur)
        if identity_gap >= IDENTITY_TOL:
            raise RuntimeError(
                f"outage-rate identity violated: |{p_out:.12e} - {xi1:.3e} * {mean_dur:.6f}| "
                f"= {identity_gap:.3e}"
            )
        records[c] = BurstStats(p_out, xi1, mean_dur, (u[c], ps[c], out))
    return records


def chain_burst_stats(p, out) -> BurstStats:
    """Full analytic burstiness record of the chain p with the boolean
    outage mask out: the stack of one of chain_burst_stats_many."""
    return chain_burst_stats_many(np.asarray(p, dtype=float)[None], out)[0]


def burst_stats_many(cfg: SystemConfig, policies) -> list[BurstStats]:
    """Burstiness record of each policy: chain_burst_stats_many of the
    stack of age chains they induce, with the config's outage set. No
    policies give no records."""
    if len(policies) == 0:
        return []
    return chain_burst_stats_many(build_transition_matrices(cfg, policies), transition_tables(cfg).outage)


def burst_stats(cfg: SystemConfig, policy, *, tables=None) -> BurstStats:
    """Burstiness record for one policy: burst_stats_many of one. tables is
    not read: the tables come from transition_tables(cfg)."""
    return burst_stats_many(cfg, [policy])[0]
