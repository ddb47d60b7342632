"""Short-packet physical-layer math.

dB conversion, Gaussian Q-function, channel dispersion, Shannon capacity,
and the normal-approximation block error rate (Polyanskiy, Poor & Verdu,
IEEE Trans. IT 56(5), 2010) for an AWGN link carrying a fixed payload over
a finite number of channel uses. Q(x) is the C library's `erfc` (libm,
through `math.erfc`) applied elementwise, so the package needs numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_LN2 = math.log(2.0)
_SQRT2 = math.sqrt(2.0)
_ERFC = np.frompyfunc(math.erfc, 1, 1)


def db_to_linear(snr_db: float) -> float:
    """Convert an SNR from dB to linear scale."""
    return 10.0 ** (snr_db / 10.0)


def q_function(x):
    """Gaussian tail probability Q(x) = 0.5 * erfc(x / sqrt(2)).

    Accepts scalars or arrays; scalars come back as plain floats, arrays as
    float64 arrays of the same shape.
    """
    arr = 0.5 * np.asarray(_ERFC(np.asarray(x, dtype=float) / _SQRT2), dtype=float)
    return float(arr) if arr.ndim == 0 else arr


def channel_dispersion(gamma: float) -> float:
    """Dispersion V = 1 - 1/(1+gamma)^2 of an AWGN channel at linear SNR gamma."""
    if gamma < 0.0:
        raise ValueError(f"SNR must be nonnegative, got {gamma}")
    g1 = 1.0 + gamma
    return 1.0 - 1.0 / (g1 * g1)


def shannon_capacity(gamma: float) -> float:
    """Capacity C = log2(1 + gamma) in bits per channel use."""
    if gamma < 0.0:
        raise ValueError(f"SNR must be nonnegative, got {gamma}")
    return math.log2(1.0 + gamma)


def block_error_rate(n, d: int, gamma: float):
    """Block error rate of an n-symbol transmission carrying d payload bits.

    Normal approximation for the AWGN channel at linear SNR gamma:
        eps = Q( sqrt(n/V) * (C - d/n) * ln 2 )
    A zero allocation means no transmission and is defined as certain
    failure (rate exactly 1). The Q-argument is deliberately not clamped:
    allocations with d/n above capacity legitimately yield rates above 1/2.

    `n` may be a scalar or an integer array; the return type matches.
    """
    if gamma <= 0.0:
        raise ValueError(f"SNR must be positive (dispersion vanishes at zero), got {gamma}")
    v = channel_dispersion(gamma)
    if v == 0.0:
        raise ValueError(f"SNR {gamma} is too low: 1 + SNR rounds to 1, so the dispersion vanishes")
    if d < 1:
        raise ValueError(f"payload must be at least one bit, got {d}")
    n_in = np.asarray(n)
    if np.any(n_in < 0):
        raise ValueError("blocklength must be nonnegative")
    nf = np.atleast_1d(n_in).astype(float)
    c = shannon_capacity(gamma)
    eps = np.ones_like(nf)
    pos = nf >= 1.0
    npos = nf[pos]
    arg = np.sqrt(npos / v) * (c - d / npos) * _LN2
    eps[pos] = q_function(arg)
    return float(eps[0]) if n_in.ndim == 0 else eps


@dataclass(frozen=True)
class ChannelProfile:
    """Two-level Bernoulli block-fading profile for the two uplink devices.

    alpha_m is the per-period chance that device m sees the good SNR level.
    SNR levels are configured in dB and converted to linear scale once here.
    """

    alpha_1: float
    alpha_2: float
    gamma_good_db: float
    gamma_bad_db: float
    gamma_good: float = field(init=False, repr=False)
    gamma_bad: float = field(init=False, repr=False)

    def __post_init__(self):
        for name, a in (("alpha_1", self.alpha_1), ("alpha_2", self.alpha_2)):
            if not 0.0 < a < 1.0:
                raise ValueError(f"{name} must lie strictly inside (0, 1), got {a}")
        if not self.gamma_good_db > self.gamma_bad_db:
            raise ValueError("good-channel SNR must exceed bad-channel SNR")
        object.__setattr__(self, "gamma_good", db_to_linear(self.gamma_good_db))
        object.__setattr__(self, "gamma_bad", db_to_linear(self.gamma_bad_db))


@dataclass(frozen=True)
class LinkParams:
    """Shared frame budget: total blocklength and payload size.

    Bandwidth is normalized to 1 Hz, so capacity is in bits per channel use.
    """

    blocklength_total: int
    payload_bits: int

    def __post_init__(self):
        if self.blocklength_total < 1:
            raise ValueError(f"total blocklength must be >= 1, got {self.blocklength_total}")
        if self.payload_bits < 1:
            raise ValueError(f"payload must be >= 1 bit, got {self.payload_bits}")
