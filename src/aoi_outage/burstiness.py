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
induces, in stacks of a fixed size. Every record is the same, bit for bit,
whatever else is in its batch, and burst_stats is the batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .markov import _state_reduction, build_transition_matrices, steady_states, transition_tables, validate_policies
from .states import SystemConfig

SERIES_TOLERANCE = 1e-12
SERIES_CAP = 10_000
IDENTITY_TOL = 1e-9

#: Burst length counts the outage periods of an excursion, not the
#: recovery period that ends it.
DURATION_CONVENTION = "outage-periods"

#: Bytes of transition matrices analysed at a time: burst_stats_many cuts
#: its batch into stacks of _stack_size(cfg) chains, 52 at a_max 5, so the
#: stack, the stationary solve's working copy and temporaries and the
#: analysis's products are bounded by one stack, whatever the batch. Stacks
#: of 16 chains of 25 states traced 0.4 MB less over 100 chains but took
#: 50% longer.
_STACK_BYTES = 256 * 1024


@dataclass
class BurstStats:
    """Analytic outage burstiness of one chain. The pmf is walked on first
    read from walk (entry flow into the outage set, outage rows, mask); the
    mean interval, truncation point and leftover mass are derived on read.

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


def _exact_means(u_o, p_o, out, xi1) -> np.ndarray:
    """Mean burst length of each chain of a stack, from its outage rows p_o
    and its entry flow u_o into the outage set: the expected outage visits
    before escape of a burst entering with flow u_o, u_o (I - P_OO)^-1,
    summed and over xi1. All the chains go in one stacked state reduction of
    P_OO bordered by the complement as state 0: row 0 is the entry flow u_o
    and column 0 each outage state's escape probability."""
    system = np.zeros((len(p_o), p_o.shape[1] + 1, p_o.shape[1] + 1))
    system[:, 0, 1:] = u_o
    system[:, 1:, 0] = p_o.compress(~out, axis=2).sum(axis=2)
    system[:, 1:, 1:] = p_o.compress(out, axis=2)
    visits, pivots = _state_reduction(system)
    if (pivots[:, 1:] == 0.0).any():
        raise RuntimeError("outage set has no exit; mean duration diverges")
    return visits[:, 1:].sum(axis=1) / xi1


def _duration_pmf(inside, rows, out, xi1) -> np.ndarray:
    """Burst-length pmf of a chain from its outage rows and the masked walk
    u <- sum_i inside[i] rows[i], inside = u_O, started at its entry flow
    into the outage set: pmf[t - 1] is the mass escaping at step t over xi1.
    The walk stops one step after the mass still in outage falls below
    SERIES_TOLERANCE of xi1, or at SERIES_CAP steps."""
    pmf = []
    while True:
        u = (inside[:, None] * rows).sum(axis=0)
        pmf.append(u.compress(~out).sum() / xi1)
        if inside.sum() / xi1 < SERIES_TOLERANCE or len(pmf) == SERIES_CAP:
            return np.array(pmf)
        inside = u.compress(out)


def chain_burst_stats_many(ps, out) -> list[BurstStats]:
    """Analytic burstiness record of each chain of the (B, n, n) stack ps,
    with the boolean outage mask out shared by all. For the pmf walk a
    record keeps its chain's outage rows, its entry flow into the outage set
    and a copy of the mask, all made here, so it holds none of the caller's
    arrays.

    Recomputes each outage rate two ways (stationary mass, and entry flow
    times mean duration) and raises for the first chain where the two
    disagree beyond IDENTITY_TOL. A chain into whose outage set no
    stationary flow enters (it is empty, or holds all the stationary mass)
    gets an undefined record. Each record is the same whatever the stack.
    """
    ps, out = np.asarray(ps, dtype=float), np.array(out, dtype=bool)
    if out.shape != ps.shape[-1:]:
        raise ValueError(f"outage mask must have one entry per state: mask shape {out.shape}, "
                         f"stack shape {ps.shape}")
    pi = steady_states(ps)
    p_outs = pi.compress(out, axis=1).sum(axis=1)
    u_o = ((pi * ~out)[:, :, None] * ps).sum(axis=1).compress(out, axis=1)
    xi1s = u_o.sum(axis=1)
    defined = np.flatnonzero(xi1s > 0.0)
    records = [BurstStats(float(p), float(x)) for p, x in zip(p_outs, xi1s)]
    if defined.size == 0:
        return records
    p_o = ps.compress(out, axis=1)
    # a view when every chain is defined: indexing by `defined` would copy the stack's outage rows,
    # about 0.33 MB more at the peak of a 100-chain batch
    sel = slice(None) if defined.size == len(ps) else defined
    means = _exact_means(u_o[sel], p_o[sel], out, xi1s[sel])
    for c, mean_dur in zip(defined, means.tolist()):
        p_out, xi1 = records[c].p_out, records[c].xi_res_out_1
        identity_gap = abs(p_out - xi1 * mean_dur)
        if not identity_gap < IDENTITY_TOL:  # spelled so that NaN fails it
            raise RuntimeError(
                f"outage-rate identity violated: |{p_out:.12e} - {xi1:.3e} * {mean_dur:.6f}| "
                f"= {identity_gap:.3e}"
            )
        records[c] = BurstStats(p_out, xi1, mean_dur, (u_o[c], p_o[c], out))
    return records


def _stack_size(cfg: SystemConfig) -> int:
    """Chains per stack in burst_stats_many: max(1, _STACK_BYTES // (8 n**2))
    chains of n = a_max**2 states."""
    return max(1, _STACK_BYTES // (8 * cfg.a_max**4))


def burst_stats_many(cfg: SystemConfig, policies) -> list[BurstStats]:
    """Burstiness record of each policy: chain_burst_stats_many of the age
    chains they induce, with the config's outage set. The whole batch is
    validated first, so an invalid policy raises before any analysis; the
    chains are then built and analysed one stack of _STACK_BYTES at a time."""
    pols, size = validate_policies(policies, cfg), _stack_size(cfg)
    stacks = (build_transition_matrices(cfg, pols[start:start + size]) for start in range(0, len(pols), size))
    return [record for ps in stacks for record in chain_burst_stats_many(ps, transition_tables(cfg).outage)]


def burst_stats(cfg: SystemConfig, policy, *, tables=None) -> BurstStats:
    """Burstiness record for one policy: burst_stats_many of one. tables is
    not read: the tables come from transition_tables(cfg)."""
    return burst_stats_many(cfg, [policy])[0]
