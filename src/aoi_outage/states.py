"""Truncated state space of the two-device age process.

A state is (a1, a2, x1, x2): the two ages in periods, clamped to a_max, and
the two channel bits. The program holds a state as its 0-based position;
ages vary slowest, the device-2 bit fastest, giving 4 * a_max**2 states in
total: state 4 * g + k has age position g and channel bits k = 2 * x1 + x2,
as encode_states and decode_states spell it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .fbl import ChannelProfile, LinkParams


def encode_states(a1, a2, x1, x2, a_max: int):
    """0-based position of state (a1, a2, x1, x2); elementwise on arrays."""
    return 4 * ((a1 - 1) * a_max + a2 - 1) + 2 * x1 + x2


def decode_states(a_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Fields (a1, a2, x1, x2) of every state as arrays over 0-based
    positions; the inverse of encode_states."""
    if a_max < 1:
        raise ValueError(f"a_max must be >= 1, got {a_max}")
    r = np.arange(4 * a_max * a_max)
    ages = r >> 2
    return ages // a_max + 1, ages % a_max + 1, (r >> 1) & 1, r & 1


def outage_mask(a_max: int, a_out: int) -> np.ndarray:
    """Boolean vector over the age positions (state position // 4) marking the outage set."""
    a1, a2, _, _ = decode_states(a_max)
    return ((a1 > a_out) | (a2 > a_out))[::4]


@dataclass(frozen=True)
class SystemConfig:
    """Full parameterization of one experiment instance."""

    profile: ChannelProfile
    link: LinkParams
    a_max: int
    a_out: int
    initial: tuple[int, int, int, int] = (1, 1, 0, 0)

    def __post_init__(self):
        # a config is hashable, since it keys markov.transition_tables
        object.__setattr__(self, "initial", tuple(self.initial))
        if self.a_max < 1:
            raise ValueError(f"a_max must be >= 1, got {self.a_max}")
        if not 1 <= self.a_out <= self.a_max:
            raise ValueError(f"a_out must lie in [1, a_max={self.a_max}], got {self.a_out}")
        a1, a2, x1, x2 = self.initial
        if not (1 <= a1 <= self.a_max and 1 <= a2 <= self.a_max):
            raise ValueError(f"ages must lie in [1, {self.a_max}]: initial {self.initial}")
        if x1 not in (0, 1) or x2 not in (0, 1):
            raise ValueError(f"channel bits must be 0 or 1: initial {self.initial}")
        if self.a_out == self.a_max:
            warnings.warn(
                "a_out equals a_max: the outage set is empty and outage statistics degenerate",
                stacklevel=3,  # past the dataclass __init__ to its caller
            )

    @property
    def n_states(self) -> int:
        return 4 * self.a_max * self.a_max

    @property
    def initial_position(self) -> int:
        return encode_states(*self.initial, self.a_max)
