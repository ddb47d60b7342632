"""Dense Markov machinery for the two-device age chain.

The transition law over the age chain (TransitionTables, with the four
branch products in branch_probabilities), dense matrix assembly as one
scatter of that law, the stationary distribution, and the stationary
outage rate. The matrix builder, the policy sweep and the simulator all
read this one law, built once per config by transition_tables(cfg).
Matrices and stationary laws come in stacks, one per policy, and the
one-matrix forms are stacks of one. Burst statistics live in burstiness. A
policy is an integer vector over the states giving device 1's share of the
shared blocklength; device 2 gets the remainder.

Timing convention: the error rates governing the transition out of a state
use the channel bits stored in that state; the successor's bits are fresh
independent draws and only select the next period's SNR. So the ages alone
form a Markov chain, Q[a, a'] = sum_x bit_weights[x] P[(a, x) -> a'], the
outage set depends on the ages alone, and every analytic quantity comes
from this a_max**2-state age chain (lumpability; Kemeny & Snell, 6.3).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .fbl import block_error_rate
from .states import SystemConfig, decode_states, encode_states, outage_mask

ROW_SUM_TOL = 1e-12
RESIDUAL_TOL = 1e-10


class SteadyStateError(RuntimeError):
    """Stationary solve failed or violated its invariants (non-ergodic input)."""


def validate_policy(policy, cfg: SystemConfig) -> np.ndarray:
    """Check length, integrality and range; returns the policy as an int array."""
    arr = np.asarray(policy)
    if arr.shape != (cfg.n_states,):
        raise ValueError(f"policy must have shape ({cfg.n_states},), got {arr.shape}")
    n = cfg.link.blocklength_total
    # ints beyond int64 come as objects: clamp them just outside [0, n]
    if arr.dtype == object and all(type(v) is int for v in arr):
        arr = np.array([min(max(v, -1), n + 1) for v in arr])
    # range first, so no float entry too large for int64 reaches the cast
    if arr.dtype.kind in "iuf" and (arr.min() < 0 or arr.max() > n):
        raise ValueError(f"policy entries must lie in [0, {n}]")
    if np.issubdtype(arr.dtype, np.floating) and np.array_equal(np.rint(arr), arr):
        arr = arr.astype(np.int64)
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError("policy entries must be integers")
    return arr.astype(np.int64, copy=False)


class TransitionTables:
    """The transition law of one config over the a_max**2-state age chain,
    read by the matrix builder, the policy sweep and the simulator.

    A state is 4 * g + k: age position g and channel bits k = 2 * x1 + x2
    (states.encode_states), so a policy read as (a_max**2, 4) is indexed
    [g, k].

    - eps_by_bit[b, lam]: block error rate of lam symbols at channel bit b
      (0 = bad level, 1 = good level).
    - eps2_by_bit[b, lam]: device 2's rate at channel bit b when device 1
      gets lam, so device 2 gets N - lam: eps_by_bit read backwards, a view.
    - bits[k]: the channel bits (x1, x2) of column k.
    - ages[:, g]: the ages (a1, a2) at age position g.
    - succ[g, 2 * fail1 + fail2]: age position of the successor, where a
      device's age resets to 1 on success and steps to its successor,
      clamped at a_max, on failure.
    - bit_weights[k]: probability of fresh channel bits k, by branch_probabilities.
    - outage[g]: the outage set.

    The arrays are read-only: transition_tables(cfg) shares one instance
    per config with every caller in the process.
    """

    def __init__(self, cfg: SystemConfig):
        self.cfg = cfg
        alloc = np.arange(cfg.link.blocklength_total + 1)
        d = cfg.link.payload_bits
        self.eps_by_bit = np.stack((
            block_error_rate(alloc, d, cfg.profile.gamma_bad),
            block_error_rate(alloc, d, cfg.profile.gamma_good),
        ))
        self.eps2_by_bit = self.eps_by_bit[:, ::-1]
        self.bits = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
        a1, a2, _, _ = decode_states(cfg.a_max)
        self.ages = np.stack((a1, a2))[:, ::4]
        fail = self.bits.T[:, None]  # branch 2 * fail1 + fail2 is spelled like k
        after = np.where(fail, np.minimum(self.ages + 1, cfg.a_max)[:, :, None], 1)
        self.succ = encode_states(*after, 0, 0, cfg.a_max) // 4
        self.outage = outage_mask(cfg.a_max, cfg.a_out)
        self.bit_weights = np.array(branch_probabilities(cfg.profile.alpha_1, cfg.profile.alpha_2))
        # a view stays writeable when its base stops being, so it gets its own flag
        for table in (self.eps_by_bit, self.eps2_by_bit, self.bits, self.ages, self.succ, self.outage,
                      self.bit_weights):
            table.flags.writeable = False

    def error_rates(self, policy) -> tuple[np.ndarray, np.ndarray]:
        """Error rates (e1, e2) of the transition out of each state under
        `policy`, whose last axis runs over states, shaped (..., a_max**2, 4)."""
        lam = np.asarray(policy)
        lam = lam.reshape(*lam.shape[:-1], lam.shape[-1] // 4, 4)
        x1, x2 = self.bits.T
        return self.eps_by_bit[x1, lam], self.eps2_by_bit[x2, lam]


@lru_cache(maxsize=32)
def transition_tables(cfg: SystemConfig) -> TransitionTables:
    """The config's TransitionTables, built once per distinct config and
    shared: the law is fixed by the config, so every reader takes it here."""
    return TransitionTables(cfg)


def branch_probabilities(e1, e2) -> tuple:
    """The four outcomes 2 * b1 + b2 of two independent coins that land 1
    with probabilities e1 and e2, elementwise: a transition's branches
    2 * fail1 + fail2, or the fresh channel bits k = 2 * x1 + x2."""
    return (1.0 - e1) * (1.0 - e2), (1.0 - e1) * e2, e1 * (1.0 - e2), e1 * e2


def build_transition_matrices(cfg: SystemConfig, policies) -> np.ndarray:
    """Stack of the dense row-stochastic age-chain matrices the policies
    induce, shape (len(policies), a_max**2, a_max**2).

    One scatter of the transition law: in matrix m, state [g, k] adds
    branch b times bit_weights[k] at row g, column succ[g, b]. Entries
    accumulate in state order, then branch order, so each matrix is the
    same whatever the stack.
    """
    pols = np.array([validate_policy(p, cfg) for p in policies], dtype=np.int64).reshape(-1, cfg.n_states)
    return _scatter_matrices(cfg, pols)


def _scatter_matrices(cfg: SystemConfig, pols: np.ndarray) -> np.ndarray:
    """build_transition_matrices of a (B, n_states) int64 array of policies
    that validate_policy has passed."""
    t = transition_tables(cfg)
    # weights[m, g, k, b]: branch b of state [g, k] in matrix m, times bit_weights[k]
    weights = np.stack(branch_probabilities(*t.error_rates(pols)), axis=-1) * t.bit_weights[:, None]
    n = cfg.a_max**2
    # flat index of entry [m, g, succ[g, b]], repeated for the four bits k
    cell = np.repeat(t.succ + n * np.arange(len(pols) * n).reshape(-1, n, 1), 4, axis=1)
    flat = np.bincount(cell.ravel(), weights=weights.ravel(), minlength=len(pols) * n * n)
    # bincount gives ints for no cells, so an empty stack is cast; any other is float already
    return flat.reshape(len(pols), n, n).astype(float, copy=False)


def build_transition_matrix(cfg: SystemConfig, policy) -> np.ndarray:
    """Dense row-stochastic transition matrix of the age chain `policy`
    induces: the stack of one of build_transition_matrices."""
    return build_transition_matrices(cfg, [policy])[0]


def _state_reduction(q) -> tuple[np.ndarray, np.ndarray]:
    """GTH state reduction (Grassmann, Taksar & Heyman, Oper. Res. 33(5),
    1985) of each matrix of a (B, n, n) stack of nonnegative q, read by its
    off-diagonal entries only. Returns (y, pivots), both (B, n).

    State k is eliminated from the highest down, and its pivot is its
    row's mass to the states below it, so there is no subtraction and
    structural zeros stay exact. A zero pivot leaves its state unreduced;
    the system's anchor is its highest state with a zero pivot, or state 0.
    y is 1 at the anchor, 0 below it, and above it solves the balance
    y_k * sum_{j != k} q[k, j] = sum_{i != k} y_i q[i, k]. For a
    row-stochastic chain that is its stationary vector, unnormalized. For
    a substochastic system bordered by state 0, with row 0 the flow into it
    and column 0 the mass leaving it (Alfa, Xue & Ye, Numer. Math. 90,
    2002), y_k is the expected visits to k per unit of that flow.
    Elementwise products and sums only, so the bytes do not depend on a
    BLAS kernel, and each system's are the same whatever the stack.
    """
    q = np.array(q, dtype=float)
    b, n, _ = q.shape
    pivots = np.zeros((b, n))
    for k in range(n - 1, 0, -1):
        row, col, block = q[:, k, :k], q[:, :k, k], q[:, :k, :k]
        pivot = row.sum(axis=1)
        pivots[:, k] = pivot
        np.divide(col, pivot[:, None], out=col, where=pivot[:, None] > 0.0)
        block += col[:, :, None] * row[:, None, :]
    anchor = n - 1 - (pivots[:, ::-1] == 0.0).argmax(axis=1)
    y = (np.arange(n) == anchor[:, None]).astype(float)
    for k in range(1, n):
        y[:, k] += (y[:, :k] * q[:, :k, k]).sum(axis=1)
    return y, pivots


def _reaches(ps, support) -> np.ndarray:
    """Which states of each chain of the stack ps reach the chain's boolean
    support along entries P > 0, as a (B, n) mask."""
    step = ps > 0.0
    reach = support
    while True:
        grown = reach | (step & reach[:, None, :]).any(axis=2)
        if np.array_equal(grown, reach):
            return reach
        reach = grown


def steady_states(ps) -> np.ndarray:
    """Unique stationary distribution of each matrix in a (B, n, n) stack
    of row-stochastic matrices, as a (B, n) array.

    Stacked GTH (_state_reduction), which reads each chain by its
    off-diagonal entries. A chain with transient states gets mass 0 on
    them; a chain where some state cannot reach the support found (several
    closed classes) raises SteadyStateError, as does a solve that overflows
    or a solution that violates the invariants, with the worst figure of
    the stack.
    """
    ps = np.asarray(ps, dtype=float)
    if ps.ndim != 3 or ps.shape[1] != ps.shape[2]:
        raise ValueError(f"need a (B, n, n) stack of matrices, got shape {ps.shape}")
    # spelled so that NaN, for which every comparison is False, fails it
    if not (ps.min(initial=0.0) >= 0.0 and ps.max(initial=0.0) <= 1.0 + ROW_SUM_TOL):
        raise ValueError("transition probabilities must be finite and lie in [0, 1]")
    row_err = np.abs(ps.sum(axis=-1) - 1.0).max(initial=0.0)
    if row_err > ROW_SUM_TOL:
        raise ValueError(f"rows must sum to 1 within {ROW_SUM_TOL}, worst error {row_err:.3e}")
    # an entry that overflows to inf or NaN leaves its chain's sum non-finite, which raises below
    with np.errstate(over="ignore", invalid="ignore"):
        pi, _ = _state_reduction(ps)
    total = pi.sum(axis=1, keepdims=True)
    if not np.isfinite(total).all():
        raise SteadyStateError("stationary solve overflowed: the chain's mass ratios exceed a 64-bit float")
    # a state that cannot reach the solved support: more than one closed class
    if not _reaches(ps, pi > 0.0).all():
        raise SteadyStateError("singular stationary system (chain not ergodic)")
    pi /= total
    residual = np.abs((pi[:, :, None] * ps).sum(axis=1) - pi).max(initial=0.0)
    # spelled so that NaN fails it
    if not residual < RESIDUAL_TOL:
        raise SteadyStateError(f"stationarity residual {residual:.3e} exceeds {RESIDUAL_TOL}")
    return pi


def steady_state(p) -> np.ndarray:
    """Unique stationary distribution of one row-stochastic matrix: the
    stack of one of steady_states."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ValueError(f"transition matrix must be square, got shape {p.shape}")
    return steady_states(p[None])[0]


def outage_probability(pi, cfg: SystemConfig) -> float:
    """Stationary outage rate: mass of the age chain's law pi past the threshold."""
    pi = np.asarray(pi, dtype=float)
    if pi.shape != (cfg.a_max**2,):
        raise ValueError(f"pi must have shape ({cfg.a_max**2},), got {pi.shape}")
    return float(pi[transition_tables(cfg).outage].sum())
