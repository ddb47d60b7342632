"""Truncated state space of the two-device age process.

A state is (a1, a2, x1, x2): the two ages in periods, clamped to a_max, and
the two channel bits. States carry a canonical 1-based index; ages vary
slowest, the device-2 bit fastest, giving 4 * a_max**2 states in total.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .fbl import ChannelProfile, LinkParams


@dataclass(frozen=True)
class SystemState:
    a1: int
    a2: int
    x1: int
    x2: int

    def validate(self, a_max: int) -> None:
        if not (1 <= self.a1 <= a_max and 1 <= self.a2 <= a_max):
            raise ValueError(f"ages must lie in [1, {a_max}]: {self}")
        if self.x1 not in (0, 1) or self.x2 not in (0, 1):
            raise ValueError(f"channel bits must be 0 or 1: {self}")


def state_to_index(state: SystemState, a_max: int) -> int:
    """Canonical 1-based index of a state."""
    state.validate(a_max)
    return 2 * (2 * ((state.a1 - 1) * a_max + state.a2 - 1) + state.x1) + state.x2 + 1


def index_to_state(index: int, a_max: int) -> SystemState:
    """Inverse of state_to_index."""
    n_states = 4 * a_max * a_max
    if not 1 <= index <= n_states:
        raise ValueError(f"index must lie in [1, {n_states}], got {index}")
    r = index - 1
    x2 = r & 1
    r >>= 1
    x1 = r & 1
    r >>= 1
    a1, a2 = divmod(r, a_max)
    return SystemState(a1 + 1, a2 + 1, x1, x2)


def is_outage(state: SystemState, a_out: int) -> bool:
    """True when at least one age strictly exceeds the threshold."""
    return state.a1 > a_out or state.a2 > a_out


def enumerate_states(a_max: int) -> list[SystemState]:
    """All states in index order; position k holds index_to_state(k + 1)."""
    if a_max < 1:
        raise ValueError(f"a_max must be >= 1, got {a_max}")
    return [index_to_state(i, a_max) for i in range(1, 4 * a_max * a_max + 1)]


def decode_states(a_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Fields (a1, a2, x1, x2) of every state as arrays over 0-based positions,
    decoded from the index by integer arithmetic."""
    if a_max < 1:
        raise ValueError(f"a_max must be >= 1, got {a_max}")
    r = np.arange(4 * a_max * a_max)
    ages = r >> 2
    return ages // a_max + 1, ages % a_max + 1, (r >> 1) & 1, r & 1


def outage_mask(a_max: int, a_out: int) -> np.ndarray:
    """Boolean vector over 0-based state positions marking the outage set."""
    a1, a2, _, _ = decode_states(a_max)
    return (a1 > a_out) | (a2 > a_out)


@dataclass(frozen=True)
class SystemConfig:
    """Full parameterization of one experiment instance."""

    profile: ChannelProfile
    link: LinkParams
    a_max: int
    a_out: int
    initial_state: SystemState = SystemState(1, 1, 0, 0)

    def __post_init__(self):
        if self.a_max < 1:
            raise ValueError(f"a_max must be >= 1, got {self.a_max}")
        if not 1 <= self.a_out <= self.a_max:
            raise ValueError(f"a_out must lie in [1, a_max={self.a_max}], got {self.a_out}")
        self.initial_state.validate(self.a_max)
        if self.a_out == self.a_max:
            warnings.warn(
                "a_out equals a_max: the outage set is empty and outage statistics degenerate",
                stacklevel=2,
            )

    @property
    def n_states(self) -> int:
        return 4 * self.a_max * self.a_max

    @property
    def initial_index(self) -> int:
        return state_to_index(self.initial_state, self.a_max)
