"""Physical-layer math against arbitrary-precision oracles and edge cases."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from aoi_outage.fbl import (
    ChannelProfile,
    LinkParams,
    block_error_rate,
    channel_dispersion,
    db_to_linear,
    q_function,
    shannon_capacity,
)

from conftest import reference_bit_probability, reference_gamma_for_bit

GAMMA_GOOD = 10 ** (-12.2 / 10)
GAMMA_BAD = 10 ** (-15.2 / 10)


def q_oracle(x: float) -> float:
    with mpmath.workdps(40):
        return float(mpmath.erfc(mpmath.mpf(x) / mpmath.sqrt(2)) / 2)


def bler_oracle(n: int, d: int, gamma: float) -> float:
    """High-precision evaluation of the normal-approximation error rate."""
    with mpmath.workdps(40):
        g = mpmath.mpf(gamma)
        v = 1 - 1 / (1 + g) ** 2
        c = mpmath.log(1 + g) / mpmath.log(2)
        arg = mpmath.sqrt(mpmath.mpf(n) / v) * (c - mpmath.mpf(d) / n) * mpmath.log(2)
        return float(mpmath.erfc(arg / mpmath.sqrt(2)) / 2)


class TestDbToLinear:
    def test_zero_db_is_unity(self):
        assert db_to_linear(0.0) == 1.0

    def test_ten_db_is_ten(self):
        assert db_to_linear(10.0) == pytest.approx(10.0, rel=1e-15)

    def test_negative_db(self):
        assert db_to_linear(-12.2) == pytest.approx(0.060255958607435774, rel=1e-14)


class TestQFunction:
    def test_zero(self):
        assert q_function(0.0) == 0.5

    def test_known_values(self):
        # frozen from the mpmath oracle above
        assert q_function(1.96) == pytest.approx(0.024997895148220434, abs=1e-15)
        assert q_function(-3.0) == pytest.approx(0.9986501019683699, abs=1e-15)

    def test_within_four_ulp_of_mpmath(self):
        # Gated at the float64 argument u = x / sqrt(2) exactly as the program
        # rounds it, so the gate measures erfc alone. Against Q exact in x, the
        # rounding of u is amplified by about 2 u^2 in the tail: libm's and
        # scipy's erfc both land ~1 400 ulp off at x = 37.
        xs = np.linspace(-8.0, 37.0, 3001)
        qs = q_function(xs)
        worst = 0.0
        with mpmath.workdps(50):
            for x, q in zip(xs.tolist(), qs.tolist()):
                exact = mpmath.erfc(mpmath.mpf(x / math.sqrt(2))) / 2
                worst = max(worst, float(abs(q - exact)) / math.ulp(float(exact)))
        assert worst <= 4.0, f"q_function is {worst:.1f} ulp from the oracle"

    def test_oracle_grid(self):
        xs = np.linspace(-8.0, 8.0, 201)
        qs = q_function(xs)
        for x, q in zip(xs, qs):
            assert abs(q - q_oracle(x)) <= 1e-12

    def test_strictly_decreasing(self):
        xs = np.linspace(-8.0, 8.0, 400)
        qs = q_function(xs)
        assert np.all(np.diff(qs) < 0)

    @given(st.floats(min_value=-8.0, max_value=8.0, allow_nan=False))
    def test_symmetry(self, x):
        assert q_function(x) + q_function(-x) == pytest.approx(1.0, abs=1e-12)

    def test_vectorized_matches_scalar(self):
        xs = np.linspace(-5, 5, 7)
        vec = q_function(xs)
        assert vec.shape == xs.shape
        for x, v in zip(xs, vec):
            assert q_function(float(x)) == v


class TestDispersion:
    def test_zero_snr(self):
        assert channel_dispersion(0.0) == 0.0

    def test_unit_snr(self):
        assert channel_dispersion(1.0) == 0.75

    def test_derived_value(self):
        # frozen from direct high-precision evaluation
        assert channel_dispersion(0.060256) == pytest.approx(0.11043328937685417, rel=1e-12)

    def test_range(self):
        for g in np.geomspace(1e-6, 1e6, 25):
            v = channel_dispersion(g)
            assert 0.0 <= v < 1.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            channel_dispersion(-0.1)


class TestCapacity:
    def test_unit_snr(self):
        assert shannon_capacity(1.0) == 1.0

    def test_zero_snr(self):
        assert shannon_capacity(0.0) == 0.0

    def test_derived_value(self):
        assert shannon_capacity(0.060256) == pytest.approx(0.08441264718405529, rel=1e-12)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            shannon_capacity(-1.0)


class TestBlockErrorRate:
    def test_rate_half_when_payload_matches_capacity(self):
        # at gamma = 1 capacity is exactly 1 bit per use, so d = n sits at the knee
        assert block_error_rate(16, 16, 1.0) == 0.5

    def test_zero_allocation_is_certain_failure(self):
        assert block_error_rate(0, 16, GAMMA_GOOD) == 1.0
        assert block_error_rate(0, 1, GAMMA_BAD) == 1.0

    def test_golden_value(self):
        # frozen from bler_oracle(500, 16, GAMMA_GOOD)
        assert block_error_rate(500, 16, GAMMA_GOOD) == pytest.approx(
            0.0072519544037716796, rel=1e-10
        )

    @pytest.mark.parametrize("n", [1, 10, 100, 500, 1000])
    @pytest.mark.parametrize("gamma", [GAMMA_GOOD, GAMMA_BAD])
    def test_matches_oracle(self, n, gamma):
        assert block_error_rate(n, 16, gamma) == pytest.approx(bler_oracle(n, 16, gamma), rel=1e-10)

    @pytest.mark.parametrize("gamma", [GAMMA_GOOD, GAMMA_BAD])
    def test_decreasing_in_n(self, gamma):
        # the Q-argument grows strictly with n; the rate itself saturates to
        # exactly 1.0 in float64 for the smallest allocations, so strictness
        # is asserted wherever the value has left saturation
        n = np.arange(1, 1001)
        v = channel_dispersion(gamma)
        c = shannon_capacity(gamma)
        arg = np.sqrt(n / v) * (c - 16 / n) * math.log(2)
        assert np.all(np.diff(arg) > 0)
        eps = block_error_rate(n, 16, gamma)
        assert np.all(np.diff(eps) <= 0)
        below = eps[:-1] < 1.0
        assert np.all(np.diff(eps)[below] < 0)

    def test_good_channel_beats_bad(self):
        n = np.arange(1, 1001)
        good = block_error_rate(n, 16, GAMMA_GOOD)
        bad = block_error_rate(n, 16, GAMMA_BAD)
        assert np.all(good <= bad)
        unsaturated = (good < 1.0) | (bad < 1.0)
        assert np.all(good[unsaturated] < bad[unsaturated])
        assert unsaturated.sum() > 950

    def test_bounds(self):
        eps = block_error_rate(np.arange(0, 1001), 16, GAMMA_BAD)
        assert np.all(eps > 0.0)
        assert np.all(eps <= 1.0)

    def test_no_argument_clamp(self):
        # above-capacity payloads must produce rates beyond one half
        assert block_error_rate(20, 16, GAMMA_BAD) > 0.5

    def test_vectorized_matches_scalar(self):
        ns = np.array([0, 1, 7, 500])
        vec = block_error_rate(ns, 16, GAMMA_GOOD)
        for n, v in zip(ns, vec):
            assert block_error_rate(int(n), 16, GAMMA_GOOD) == v

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            block_error_rate(10, 16, 0.0)
        with pytest.raises(ValueError):
            block_error_rate(10, 16, -1.0)
        with pytest.raises(ValueError):
            block_error_rate(10, 16, 1e-20)  # 1 + gamma rounds to 1: the dispersion is 0
        with pytest.raises(ValueError):
            block_error_rate(10, 0, 1.0)
        with pytest.raises(ValueError):
            block_error_rate(-1, 16, 1.0)


class TestProfileAndLink:
    def test_profile_converts_once(self):
        p = ChannelProfile(0.6, 0.4, -12.2, -15.2)
        assert p.gamma_good == pytest.approx(GAMMA_GOOD, rel=1e-15)
        assert p.gamma_bad == pytest.approx(GAMMA_BAD, rel=1e-15)
        assert reference_gamma_for_bit(p, 1) == p.gamma_good
        assert reference_gamma_for_bit(p, 0) == p.gamma_bad

    def test_bit_probability(self):
        p = ChannelProfile(0.6, 0.4, -12.2, -15.2)
        assert reference_bit_probability(p, 1, 1) == 0.6
        assert reference_bit_probability(p, 1, 0) == pytest.approx(0.4)
        assert reference_bit_probability(p, 2, 1) == 0.4
        with pytest.raises(ValueError):
            reference_bit_probability(p, 3, 1)

    @pytest.mark.parametrize("a1,a2", [(0.0, 0.5), (1.0, 0.5), (0.5, -0.1), (0.5, 1.5)])
    def test_profile_rejects_degenerate_alpha(self, a1, a2):
        with pytest.raises(ValueError):
            ChannelProfile(a1, a2, -12.2, -15.2)

    def test_profile_requires_ordered_snr(self):
        with pytest.raises(ValueError):
            ChannelProfile(0.5, 0.5, -15.2, -12.2)

    def test_link_validation(self):
        LinkParams(1000, 16)
        with pytest.raises(ValueError):
            LinkParams(0, 16)
        with pytest.raises(ValueError):
            LinkParams(1000, 0)
