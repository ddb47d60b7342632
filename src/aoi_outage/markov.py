"""Dense Markov machinery for the two-device age chain.

The transition law as per-config arrays (TransitionTables), dense matrix
assembly as one scatter of that law, the stationary distribution, and the
stationary outage rate. Matrices and stationary laws come in stacks, one
per policy: a stack is built by one scatter and solved by one stacked
solve, and the one-matrix forms are stacks of one. Burst statistics of
the solved chain live in burstiness. A policy is an integer vector over
the enumerated state space giving device 1's share of the shared
blocklength; device 2 receives the remainder.

Timing convention: the error rates governing the transition out of a state
use the channel bits stored in that state; the successor's bits are fresh
independent draws and only select the next period's SNR. So the ages alone
form a Markov chain, Q[a, a'] = sum_x bit_weights[x] P[(a, x) -> a'], the
outage set depends on the ages alone, and every analytic quantity comes
from this a_max**2-state age chain (lumpability; Kemeny & Snell, 6.3).
"""

from __future__ import annotations

import numpy as np

from .fbl import block_error_rate
from .states import SystemConfig, decode_states, encode_states, outage_mask

ROW_SUM_TOL = 1e-12
RESIDUAL_TOL = 1e-10
NEGATIVE_MASS_TOL = -1e-14


class SteadyStateError(RuntimeError):
    """Stationary solve failed or violated its invariants (non-ergodic input)."""


def validate_policy(policy, cfg: SystemConfig) -> np.ndarray:
    """Check length, integrality and range; returns the policy as an int array."""
    arr = np.asarray(policy)
    if arr.shape != (cfg.n_states,):
        raise ValueError(f"policy must have shape ({cfg.n_states},), got {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        rounded = np.rint(arr)
        if not np.array_equal(rounded, arr):
            raise ValueError("policy entries must be integers")
        arr = rounded.astype(np.int64)
    n = cfg.link.blocklength_total
    if arr.min() < 0 or arr.max() > n:
        raise ValueError(f"policy entries must lie in [0, {n}]")
    return arr.astype(np.int64, copy=False)


class TransitionTables:
    """The transition law of one config, stored as arrays and read by the
    matrix builder, the policy sweep and the simulator.

    - eps_by_bit[b, lam]: block error rate of lam symbols at channel bit b
      (0 = bad level, 1 = good level).
    - a1, a2, x1, x2: the fields of every state, over 0-based positions.
    - succ[i, 2 * fail1 + fail2]: position of the successor of state i with
      channel bits (0, 0), where a device's age resets to 1 on success and
      steps to its successor, clamped at a_max, on failure.
    - bit_weights[k]: probability of fresh channel bits k = 2 * x1 + x2; the
      full successor is succ[i, b] + k.
    - outage: the outage set, over the a_max**2 age positions.
    - cell[i, b]: flat index of the age-chain matrix entry that branch b of
      state i adds to: row i // 4, column succ[i, b] // 4.
    """

    def __init__(self, cfg: SystemConfig):
        self.cfg = cfg
        alloc = np.arange(cfg.link.blocklength_total + 1)
        d = cfg.link.payload_bits
        self.eps_by_bit = np.stack((
            block_error_rate(alloc, d, cfg.profile.gamma_bad),
            block_error_rate(alloc, d, cfg.profile.gamma_good),
        ))
        self.a1, self.a2, self.x1, self.x2 = decode_states(cfg.a_max)
        fail1, fail2 = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])
        self.succ = encode_states(
            np.where(fail1, np.minimum(self.a1 + 1, cfg.a_max)[:, None], 1),
            np.where(fail2, np.minimum(self.a2 + 1, cfg.a_max)[:, None], 1),
            0, 0, cfg.a_max,
        )
        self.outage = outage_mask(cfg.a_max, cfg.a_out)
        self.cell = (np.arange(cfg.n_states)[:, None] // 4) * cfg.a_max**2 + self.succ // 4
        a1p = cfg.profile.alpha_1
        a2p = cfg.profile.alpha_2
        # order matches the bit suffix of the state index: (0,0),(0,1),(1,0),(1,1)
        self.bit_weights = np.array(
            [(1 - a1p) * (1 - a2p), (1 - a1p) * a2p, a1p * (1 - a2p), a1p * a2p]
        )

    @property
    def n_total(self) -> int:
        return self.cfg.link.blocklength_total

    def error_rates(self, policy) -> tuple[np.ndarray, np.ndarray]:
        """Error rates (e1, e2) of the transition out of each state under
        `policy`, whose last axis runs over states."""
        return self.eps_by_bit[self.x1, policy], self.eps_by_bit[self.x2, self.n_total - policy]


def build_transition_matrices(cfg: SystemConfig, policies, *, tables: TransitionTables | None = None) -> np.ndarray:
    """Stack of the dense row-stochastic age-chain matrices the policies
    induce, shape (len(policies), a_max**2, a_max**2).

    One scatter of the transition law: in matrix m, state i, with channel
    bits i & 3, adds branch[m, i, b] * bit_weights[i & 3] at cell[i, b].
    Entries accumulate in state order, then branch order, so each matrix
    is the same whatever the stack.
    """
    pols = np.stack([validate_policy(p, cfg) for p in policies])
    t = tables if tables is not None else TransitionTables(cfg)
    e1, e2 = t.error_rates(pols)
    branch = np.stack([(1.0 - e1) * (1.0 - e2), (1.0 - e1) * e2, e1 * (1.0 - e2), e1 * e2], axis=-1)
    size = cfg.a_max**4
    cell = t.cell + size * np.arange(len(pols))[:, None, None]
    weights = branch * t.bit_weights[np.arange(cfg.n_states)[:, None] & 3]
    flat = np.bincount(cell.ravel(), weights=weights.ravel(), minlength=len(pols) * size)
    return flat.reshape(len(pols), cfg.a_max**2, cfg.a_max**2)


def build_transition_matrix(cfg: SystemConfig, policy, *, tables: TransitionTables | None = None) -> np.ndarray:
    """Dense row-stochastic transition matrix of the age chain `policy`
    induces: the stack of one of build_transition_matrices."""
    return build_transition_matrices(cfg, [policy], tables=tables)[0]


def _check_stochastic(p: np.ndarray, ndim: int) -> None:
    if p.ndim != ndim or p.shape[-2] != p.shape[-1]:
        what = "transition matrix must be square" if ndim == 2 else "need a (B, n, n) stack of matrices"
        raise ValueError(f"{what}, got shape {p.shape}")
    if p.min() < 0.0 or p.max() > 1.0 + ROW_SUM_TOL:
        raise ValueError("transition probabilities must lie in [0, 1]")
    row_err = np.abs(p.sum(axis=-1) - 1.0).max()
    if row_err > ROW_SUM_TOL:
        raise ValueError(f"rows must sum to 1 within {ROW_SUM_TOL}, worst error {row_err:.3e}")


def _steady_states(ps: np.ndarray) -> np.ndarray:
    """Stationary laws of a checked (B, n, n) stack, one row each."""
    b, n, _ = ps.shape
    m = np.eye(n) - ps.transpose(0, 2, 1)
    m[:, -1, :] = 1.0
    rhs = np.zeros((b, n, 1))
    rhs[:, -1] = 1.0
    try:
        pi = np.linalg.solve(m, rhs)[..., 0]
    except np.linalg.LinAlgError as exc:
        raise SteadyStateError("singular stationary system (chain not ergodic)") from exc
    if pi.min() < NEGATIVE_MASS_TOL:
        raise SteadyStateError(f"stationary solve produced negative mass {pi.min():.3e}")
    pi = np.clip(pi, 0.0, None)
    pi /= pi.sum(axis=1, keepdims=True)
    residual = np.abs((pi[:, None, :] @ ps)[:, 0] - pi).max()
    if residual >= RESIDUAL_TOL:
        raise SteadyStateError(f"stationarity residual {residual:.3e} exceeds {RESIDUAL_TOL}")
    return pi


def steady_states(ps) -> np.ndarray:
    """Unique stationary distribution of each matrix in a (B, n, n) stack
    of row-stochastic matrices, as a (B, n) array.

    Solves (I - P^T) pi = 0 with the natural rank-1 deficiency repaired by
    replacing the last equation with the normalization sum(pi) = 1, all B
    systems in one stacked solve, then verifies stationarity. Raises
    SteadyStateError, with the worst figure of the stack, when a system is
    singular beyond that deficiency or a solution violates the invariants.
    """
    ps = np.asarray(ps, dtype=float)
    _check_stochastic(ps, 3)
    return _steady_states(ps)


def steady_state(p) -> np.ndarray:
    """Unique stationary distribution of one row-stochastic matrix: the
    stack of one of steady_states."""
    p = np.asarray(p, dtype=float)
    _check_stochastic(p, 2)
    return _steady_states(p[None])[0]


def outage_probability(pi, cfg: SystemConfig) -> float:
    """Stationary outage rate: mass of the age chain's law pi past the threshold."""
    pi = np.asarray(pi, dtype=float)
    if pi.shape != (cfg.a_max**2,):
        raise ValueError(f"pi must have shape ({cfg.a_max**2},), got {pi.shape}")
    return float(pi[outage_mask(cfg.a_max, cfg.a_out)].sum())
