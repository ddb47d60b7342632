"""Masked k-step recursion, burst-duration statistics, and the rate identity."""

import itertools

import numpy as np
import pytest

from aoi_outage.burstiness import (
    IDENTITY_TOL,
    SERIES_CAP,
    SERIES_TOLERANCE,
    OutageUnreachableError,
    burst_stats,
    mean_ioi,
    mean_outage_duration,
    outage_duration_pmf,
    xi_matrix,
    xi_set_to_set,
)
from aoi_outage.markov import TransitionTables, build_transition_matrix, steady_state
from aoi_outage.optimizer import PenaltyKind, min_error_policy, naive_policy, optimize
from aoi_outage.scenarios import load_scenario
from aoi_outage.states import outage_mask

from conftest import make_config, random_policy


def xi_path_oracle(p, mask, k):
    """Brute-force path enumeration: every length-k walk whose interior
    states all lie inside the masked set."""
    n = p.shape[0]
    xi = np.zeros((n, n))
    interior = [v for v in range(n) if mask[v]]
    for i in range(n):
        for j in range(n):
            if k == 1:
                xi[i, j] = p[i, j]
                continue
            for path in itertools.product(interior, repeat=k - 1):
                prob = p[i, path[0]]
                for a, b in zip(path, path[1:]):
                    prob *= p[a, b]
                prob *= p[path[-1], j]
                xi[i, j] += prob
    return xi


def reference_duration_series(pi, p, out):
    """Mean burst length as a truncated tail-sum series: the entry mass still
    in outage after each masked step, summed until a term drops below
    SERIES_TOLERANCE of the entry flow (or the step count reaches SERIES_CAP), plus
    a geometric tail from the last two distinct terms. Returns (mean, stop_t);
    the burst-length pmf is truncated at stop_t."""
    u = (pi * ~out) @ p
    xi1 = float(u[out].sum())
    total = xi1
    prev = xi1
    t = 1
    term = 0.0
    while True:
        u = (u * out) @ p
        term = float(u[out].sum())
        t += 1
        total += term
        if term / xi1 < SERIES_TOLERANCE or t >= SERIES_CAP:
            break
        prev = term
    if term > 0.0 and prev > 0.0:
        rho = term / prev
        assert rho < 1.0, "series does not decay"
        total += term * rho / (1.0 - rho)
    return total / xi1, t


def reference_duration_pmf(pi, p, out, t_max):
    """Burst-length pmf by the masked walk, one step per period."""
    u = (pi * ~out) @ p
    xi1 = float(u[out].sum())
    pmf = np.empty(t_max)
    for t in range(1, t_max + 1):
        u = (u * out) @ p
        pmf[t - 1] = u[~out].sum() / xi1
    return pmf


@pytest.fixture(scope="module")
def two_state():
    """res <-> out chain with entry rate r and escape rate s."""
    r, s = 0.3, 0.5
    p = np.array([[1 - r, r], [s, 1 - s]])
    mask = np.array([False, True])
    pi = steady_state(p)
    return p, mask, pi, r, s


class TestXiMatrix:
    def test_first_step_is_transition_matrix(self, small_cfg):
        p = build_transition_matrix(small_cfg, naive_policy(small_cfg))
        mask = outage_mask(small_cfg.a_max, small_cfg.a_out)
        out = xi_matrix(p, mask, 1)
        assert np.array_equal(out, p)
        out[0, 0] = -1.0  # returned matrix must be a copy
        assert p[0, 0] != -1.0

    def test_empty_mask_kills_longer_walks(self):
        p = np.array([[0.7, 0.3], [0.1, 0.9]])
        assert np.all(xi_matrix(p, np.array([False, False]), 2) == 0.0)

    def test_three_state_double_sum(self):
        p = np.array([[0.2, 0.5, 0.3], [0.6, 0.1, 0.3], [0.25, 0.25, 0.5]])
        mask = np.array([False, True, True])
        xi2 = xi_matrix(p, mask, 2)
        for i in range(3):
            for j in range(3):
                expected = sum(p[i, l] * p[l, j] for l in range(3) if mask[l])
                assert xi2[i, j] == pytest.approx(expected, abs=1e-16)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_path_enumeration_oracle(self, k):
        rng = np.random.default_rng(17)
        raw = rng.random((5, 5))
        p = raw / raw.sum(axis=1, keepdims=True)
        mask = np.array([True, False, True, True, False])
        assert xi_matrix(p, mask, k) == pytest.approx(xi_path_oracle(p, mask, k), abs=1e-14)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            xi_matrix(np.eye(2), np.array([True, False]), 0)


class TestXiSetToSet:
    def test_one_step_partition_of_unity(self, small_cfg, small_tables):
        p = build_transition_matrix(small_cfg, naive_policy(small_cfg), tables=small_tables)
        pi = steady_state(p)
        total = sum(
            xi_set_to_set(pi, p, a, b, 1, small_cfg)
            for a in (False, True)
            for b in (False, True)
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_one_step_definition_unrolled(self, small_cfg, small_tables):
        p = build_transition_matrix(small_cfg, naive_policy(small_cfg), tables=small_tables)
        pi = steady_state(p)
        mask = outage_mask(small_cfg.a_max, small_cfg.a_out)
        expected = sum(
            pi[i] * p[i, j]
            for i in range(small_cfg.n_states)
            if not mask[i]
            for j in range(small_cfg.n_states)
            if mask[j]
        )
        assert xi_set_to_set(pi, p, False, True, 1, small_cfg) == pytest.approx(
            expected, rel=1e-12
        )

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_matrix_aggregation(self, small_cfg, small_tables, k):
        pol = random_policy(small_cfg, np.random.default_rng(2))
        p = build_transition_matrix(small_cfg, pol, tables=small_tables)
        pi = steady_state(p)
        mask = outage_mask(small_cfg.a_max, small_cfg.a_out)
        xi = xi_matrix(p, mask, k)
        for a in (False, True):
            for b in (False, True):
                src = mask if a else ~mask
                dst = mask if b else ~mask
                expected = float(pi[src] @ xi[np.ix_(src, dst)].sum(axis=1))
                assert xi_set_to_set(pi, p, a, b, k, small_cfg) == pytest.approx(
                    expected, rel=1e-12, abs=1e-300
                )

    def test_path_oracle_on_hand_chain(self):
        # 4-state chain, k = 3: enumerate every path and filter interiors
        rng = np.random.default_rng(5)
        raw = rng.random((4, 4))
        p = raw / raw.sum(axis=1, keepdims=True)
        mask = np.array([False, True, True, False])
        pi = steady_state(p)
        k = 3
        expected = 0.0
        for path in itertools.product(range(4), repeat=k + 1):
            if mask[path[0]] or not mask[path[-1]]:
                continue  # source in res, destination in out
            if not all(mask[v] for v in path[1:-1]):
                continue
            prob = pi[path[0]]
            for a, b in zip(path, path[1:]):
                prob *= p[a, b]
            expected += prob
        assert xi_set_to_set(pi, p, False, True, k, mask) == pytest.approx(expected, abs=1e-15)


class TestDurationPmf:
    def test_no_chaining_means_unit_burst(self):
        # the single outage state always escapes, so every burst lasts 1 period
        p = np.array([[0.7, 0.3], [1.0, 0.0]])
        mask = np.array([False, True])
        pi = steady_state(p)
        pmf = outage_duration_pmf(pi, p, mask, 5)
        assert pmf[0] == pytest.approx(1.0, abs=1e-14)
        assert np.all(pmf[1:] == pytest.approx(0.0, abs=1e-16))

    def test_normalization_and_sign(self, cfg_b, tables_b):
        p = build_transition_matrix(cfg_b, naive_policy(cfg_b), tables=tables_b)
        pi = steady_state(p)
        pmf = outage_duration_pmf(pi, p, cfg_b, 60)
        assert np.all(pmf >= 0.0)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-9)

    def test_geometric_tail(self, cfg_b, tables_b):
        p = build_transition_matrix(cfg_b, naive_policy(cfg_b), tables=tables_b)
        pi = steady_state(p)
        pmf = outage_duration_pmf(pi, p, cfg_b, 30)
        ratios = pmf[20:29] / pmf[19:28]
        assert np.all(ratios > 0.0)
        assert ratios.max() - ratios.min() < 1e-3  # tail settles to one decay rate

    def test_unreachable_outage_raises(self, two_state):
        p, mask, pi, _, _ = two_state
        with pytest.raises(OutageUnreachableError):
            outage_duration_pmf(pi, p, np.array([False, False]), 5)


class TestMeanDuration:
    def test_geometric_escape(self, two_state):
        p, mask, pi, r, s = two_state
        # burst length is geometric with continuation probability 1 - s
        assert mean_outage_duration(pi, p, mask) == pytest.approx(1.0 / s, rel=1e-12)

    def test_no_chaining_is_exactly_one(self):
        p = np.array([[0.7, 0.3], [1.0, 0.0]])
        mask = np.array([False, True])
        pi = steady_state(p)
        assert mean_outage_duration(pi, p, mask) == pytest.approx(1.0, abs=1e-12)

    def test_slow_escape_past_series_cap(self):
        # escape probability 0.001 per period: the pmf walk would reach
        # SERIES_CAP before its tolerance; the exact mean is 1 / 0.001
        p = np.array([[0.5, 0.5], [0.001, 0.999]])
        mask = np.array([False, True])
        pi = steady_state(p)
        assert mean_outage_duration(pi, p, mask) == pytest.approx(1000.0, rel=1e-9)

    def test_mean_matches_pmf_expectation(self, cfg_b, tables_b):
        p = build_transition_matrix(cfg_b, naive_policy(cfg_b), tables=tables_b)
        pi = steady_state(p)
        pmf = outage_duration_pmf(pi, p, cfg_b, 80)
        t = np.arange(1, 81)
        assert mean_outage_duration(pi, p, cfg_b) == pytest.approx(float(t @ pmf), rel=1e-9)

    def test_two_escape_rates(self):
        # half the bursts escape at rate 5e-5, half at 1e-4: mean (2e4 + 1e4) / 2;
        # a geometric tail fitted to the last two series terms misses it by 5.5 %
        p = np.array([[0.5, 0.25, 0.25], [5e-5, 0.99995, 0.0], [1e-4, 0.0, 0.9999]])
        mask = np.array([False, True, True])
        pi = steady_state(p)
        mean = mean_outage_duration(pi, p, mask)
        assert mean == pytest.approx(15000.0, rel=1e-12)
        entry = xi_set_to_set(pi, p, False, True, 1, mask)
        assert abs(float(pi[mask].sum()) - entry * mean) < IDENTITY_TOL

    def test_closed_outage_set_raises(self):
        p = np.array([[0.5, 0.5], [0.0, 1.0]])
        with pytest.raises(RuntimeError, match="no exit"):
            mean_outage_duration(np.array([0.5, 0.5]), p, np.array([False, True]))


class TestMatchesReferenceSeries:
    @pytest.mark.parametrize("preset", ["scenario_a", "scenario_b", "scenario_c"])
    def test_named_and_random_policies(self, preset):
        cfg = load_scenario(preset).system
        tables = TransitionTables(cfg)
        policies = [naive_policy(cfg), min_error_policy(cfg, tables=tables)]
        policies += [optimize(cfg, kind, 0, tables=tables).final_policy for kind in PenaltyKind]
        rng = np.random.default_rng(23)
        policies += [random_policy(cfg, rng) for _ in range(20)]
        for pol in policies:
            self.check(cfg, pol, tables)

    def test_walk_stopped_by_cap(self):
        # random policy 56 of perfbench's analytic workload at seed 4 (its
        # generator first draws 10 optimizer seeds): the burst-length pmf
        # decays too slowly for the tolerance, so the walk stops at SERIES_CAP
        cfg = load_scenario("scenario_a").system
        rng = np.random.default_rng(4)
        rng.integers(0, 2**32, size=10)
        pol = rng.integers(0, cfg.link.blocklength_total + 1, size=(57, cfg.n_states))[56]
        stats = self.check(cfg, pol, TransitionTables(cfg))
        assert stats.truncation_t == SERIES_CAP

    @staticmethod
    def check(cfg, pol, tables):
        stats = burst_stats(cfg, pol, tables=tables)
        p = build_transition_matrix(cfg, pol, tables=tables)
        pi = steady_state(p)
        out = outage_mask(cfg.a_max, cfg.a_out)
        mean, stop_t = reference_duration_series(pi, p, out)
        xi1 = float(((pi * ~out) @ p)[out].sum())
        assert stats.p_out == float(pi[out].sum())
        assert stats.mean_ioi == (1.0 - stats.p_out) / xi1
        assert stats.truncation_t == stop_t
        assert np.array_equal(stats.duration_pmf, reference_duration_pmf(pi, p, out, stop_t))
        assert stats.mean_outage_duration == pytest.approx(mean, rel=1e-12)
        return stats


class TestMeanIoi:
    def test_two_state_closed_form(self, two_state):
        p, mask, pi, r, s = two_state
        assert mean_ioi(pi, p, mask) == pytest.approx(1.0 / r, rel=1e-12)

    def test_grows_as_outage_vanishes(self):
        values = []
        for r in (0.2, 0.02, 0.002):
            p = np.array([[1 - r, r], [0.5, 0.5]])
            pi = steady_state(p)
            values.append(mean_ioi(pi, p, np.array([False, True])))
        assert values[0] < values[1] < values[2]


class TestBurstStats:
    def test_rate_identity_random_policies(self, cfg_b, tables_b):
        rng = np.random.default_rng(99)
        for _ in range(5):
            pol = random_policy(cfg_b, rng)
            stats = burst_stats(cfg_b, pol, tables=tables_b)
            assert stats.defined
            assert abs(stats.p_out - stats.xi_res_out_1 * stats.mean_outage_duration) < 1e-9

    def test_full_record(self, cfg_b, tables_b):
        stats = burst_stats(cfg_b, naive_policy(cfg_b), tables=tables_b)
        p = build_transition_matrix(cfg_b, naive_policy(cfg_b), tables=tables_b)
        pi = steady_state(p)
        assert stats.p_out == pytest.approx(float(pi[outage_mask(5, 3)].sum()), rel=1e-12)
        assert stats.mean_outage_duration >= 1.0
        assert stats.mean_ioi >= 1.0
        assert stats.truncation_t == len(stats.duration_pmf)
        assert stats.truncation_residual < 1e-9
        assert stats.duration_pmf.sum() >= 1.0 - stats.truncation_residual - 1e-15
        assert stats.convention == "outage-periods"

    def test_empty_outage_set_is_undefined(self):
        with pytest.warns(UserWarning):
            cfg = make_config(a_max=2, a_out=2)
        stats = burst_stats(cfg, naive_policy(cfg))
        assert not stats.defined
        assert stats.p_out == 0.0
        assert stats.mean_outage_duration is None
        assert stats.mean_ioi is None
        assert stats.duration_pmf is None
