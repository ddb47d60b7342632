"""Burst analysis of a chain: masked-walk pmf, exact mean, and the rate identity.

The masked k-step forms of the paper (the xi matrix and its set-to-set
aggregation) live here as reference oracles, pinned against brute-force
path enumeration; the program's chain_burst_stats_many is checked against them
and against closed forms on hand-built chains.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from aoi_outage import burstiness
from aoi_outage.burstiness import (
    IDENTITY_TOL,
    SERIES_CAP,
    SERIES_TOLERANCE,
    _exact_means,
    burst_stats,
    burst_stats_many,
    chain_burst_stats_many,
)
from aoi_outage.markov import (
    SteadyStateError,
    build_transition_matrices,
    build_transition_matrix,
    steady_state,
    transition_tables,
)
from aoi_outage.optimizer import PenaltyKind, min_error_policy, naive_policy, optimize
from aoi_outage.scenarios import load_scenario
from aoi_outage.states import outage_mask

from conftest import chain_stats, extreme_policies, make_config, random_policy, traced_peak


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


def reference_xi_matrix(p, mask, k):
    """Masked k-step matrix: entry (i, j) is the probability of reaching j
    from i in exactly k steps through outage-only intermediate states."""
    xi = p.copy()
    for _ in range(k - 1):
        xi = p @ (xi * mask[:, None])
    return xi


def vstep(v, p):
    """One step v P of a row vector in the program's summation order: the
    rows of p weighted by v and added in row order, with no BLAS, so the
    oracles below agree with the program bit for bit on any kernel."""
    return (v[:, None] * p).sum(axis=0)


def reference_xi_set_to_set(pi, p, from_outage, to_outage, k, mask):
    """Stationary-weighted mass of masked k-step walks between the outage
    set and its complement, selected by the two boolean flags."""
    src = mask if from_outage else ~mask
    dst = mask if to_outage else ~mask
    u = vstep(pi * src, p)
    for _ in range(k - 1):
        u = vstep(u * mask, p)
    return float(u[dst].sum())


def reference_duration_series(pi, p, out):
    """Mean burst length as a truncated tail-sum series: the entry mass still
    in outage after each masked step, summed until a term drops below
    SERIES_TOLERANCE of the entry flow (or the step count reaches SERIES_CAP), plus
    a geometric tail from the last two distinct terms. Returns (mean, stop_t);
    the burst-length pmf is truncated at stop_t."""
    u = vstep(pi * ~out, p)
    xi1 = float(u[out].sum())
    total = xi1
    prev = xi1
    t = 1
    term = 0.0
    while True:
        u = vstep(u * out, p)
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
    u = vstep(pi * ~out, p)
    xi1 = float(u[out].sum())
    pmf = np.empty(t_max)
    for t in range(1, t_max + 1):
        u = vstep(u * out, p)
        pmf[t - 1] = u[~out].sum() / xi1
    return pmf


def res_to_res_mass(pi, xi, mask):
    """Stationary-weighted mass of the masked walks in xi that leave the
    complement of the outage set and return to it."""
    return float(pi[~mask] @ xi[np.ix_(~mask, ~mask)].sum(axis=1))


def assert_matches_oracles(stats, p, out):
    """The record of the chain p against the reference walk and series."""
    pi = steady_state(p)
    mean, stop_t = reference_duration_series(pi, p, out)
    xi1 = float(vstep(pi * ~out, p)[out].sum())
    assert stats.p_out == float(pi[out].sum())
    assert stats.mean_ioi == (1.0 - stats.p_out) / xi1
    assert stats.truncation_t == stop_t
    assert np.array_equal(stats.duration_pmf, reference_duration_pmf(pi, p, out, stop_t))
    assert stats.mean_outage_duration == pytest.approx(mean, rel=1e-12)


def record_bits(stats):
    """Every field of a record, the pmf as its bytes, for exact comparison."""
    pmf = None if stats.duration_pmf is None else stats.duration_pmf.tobytes()
    return (stats.p_out, stats.xi_res_out_1, stats.mean_outage_duration, stats.mean_ioi, pmf,
            stats.truncation_t, stats.truncation_residual, stats.defined)


def cap_policy():
    """Random policy 56 of perfbench's analytic workload at seed 4 on
    scenario_a (its generator first draws 10 optimizer seeds): the
    burst-length pmf decays too slowly for the tolerance, so the walk stops
    at SERIES_CAP."""
    cfg = load_scenario("scenario_a").system
    rng = np.random.default_rng(4)
    rng.integers(0, 2**32, size=10)
    return rng.integers(0, cfg.link.blocklength_total + 1, size=(57, cfg.n_states))[56]


def stop_at(t):
    """Res <-> out chain whose walk stops at step t: the mass still in
    outage after k steps is xi1 * (1 - s)**k, and s puts the tolerance
    crossing half a step past k = t - 2."""
    stay = SERIES_TOLERANCE ** (1.0 / (t - 1.5))
    return np.array([[0.7, 0.3], [1.0 - stay, stay]])


@pytest.fixture(scope="module")
def two_state():
    """res <-> out chain with entry rate r and escape rate s."""
    r, s = 0.3, 0.5
    p = np.array([[1 - r, r], [s, 1 - s]])
    mask = np.array([False, True])
    return p, mask, r, s


class TestXiMatrix:
    def test_three_state_double_sum(self):
        # the first pmf term is the two-step double sum through one outage state
        p = np.array([[0.2, 0.5, 0.3], [0.6, 0.1, 0.3], [0.25, 0.25, 0.5]])
        mask = np.array([False, True, True])
        pi = steady_state(p)
        stats = chain_stats(p, mask)
        expected = sum(
            pi[i] * p[i, l] * p[l, j]
            for i in range(3) if not mask[i]
            for l in range(3) if mask[l]
            for j in range(3) if not mask[j]
        )
        assert stats.duration_pmf[0] * stats.xi_res_out_1 == pytest.approx(expected, abs=1e-16)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_path_enumeration_oracle(self, k):
        rng = np.random.default_rng(17)
        raw = rng.random((5, 5))
        p = raw / raw.sum(axis=1, keepdims=True)
        mask = np.array([True, False, True, True, False])
        assert reference_xi_matrix(p, mask, k) == pytest.approx(
            xi_path_oracle(p, mask, k), abs=1e-14
        )


class TestXiSetToSet:
    def test_one_step_definition_unrolled(self, small_cfg):
        stats = burst_stats(small_cfg, naive_policy(small_cfg))
        p = build_transition_matrix(small_cfg, naive_policy(small_cfg))
        pi = steady_state(p)
        mask = outage_mask(small_cfg.a_max, small_cfg.a_out)
        expected = sum(
            pi[i] * p[i, j]
            for i in range(len(p))
            if not mask[i]
            for j in range(len(p))
            if mask[j]
        )
        assert stats.xi_res_out_1 == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_matrix_aggregation(self, small_cfg, k):
        # k = 1 from the complement into the outage set is the burst-start
        # flow; k > 1 back to the complement is a burst of k - 1 periods
        pol = random_policy(small_cfg, np.random.default_rng(2))
        stats = burst_stats(small_cfg, pol)
        p = build_transition_matrix(small_cfg, pol)
        pi = steady_state(p)
        mask = outage_mask(small_cfg.a_max, small_cfg.a_out)
        xi = reference_xi_matrix(p, mask, k)
        if k == 1:
            got, expected = stats.xi_res_out_1, float(pi[~mask] @ xi[np.ix_(~mask, mask)].sum(axis=1))
        else:
            got, expected = stats.duration_pmf[k - 2] * stats.xi_res_out_1, res_to_res_mass(pi, xi, mask)
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-300)

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
        assert reference_xi_set_to_set(pi, p, False, True, k, mask) == pytest.approx(
            expected, abs=1e-15
        )


class TestDurationPmf:
    def test_no_chaining_means_unit_burst(self):
        # the single outage state always escapes, so every burst lasts 1 period
        p = np.array([[0.7, 0.3], [1.0, 0.0]])
        pmf = chain_stats(p, np.array([False, True])).duration_pmf
        assert pmf[0] == pytest.approx(1.0, abs=1e-14)
        assert np.all(pmf[1:] == pytest.approx(0.0, abs=1e-16))

    def test_normalization_and_sign(self, cfg_b):
        pmf = burst_stats(cfg_b, naive_policy(cfg_b)).duration_pmf
        assert np.all(pmf >= 0.0)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-9)

    def test_geometric_tail(self, cfg_b):
        # the stop rule ends this pmf before t = 30; the reference walk goes on
        stats = burst_stats(cfg_b, naive_policy(cfg_b))
        p = build_transition_matrix(cfg_b, naive_policy(cfg_b))
        pmf = reference_duration_pmf(steady_state(p), p, transition_tables(cfg_b).outage, 30)
        assert np.array_equal(stats.duration_pmf, pmf[: stats.truncation_t])
        ratios = pmf[20:29] / pmf[19:28]
        assert np.all(ratios > 0.0)
        assert ratios.max() - ratios.min() < 1e-3  # tail settles to one decay rate

    def test_unreachable_outage_is_undefined(self, two_state):
        # no flow enters an empty outage set, so no burst is ever measured
        p, _, _, _ = two_state
        stats = chain_stats(p, np.array([False, False]))
        assert not stats.defined
        assert stats.p_out == 0.0 and stats.xi_res_out_1 == 0.0
        assert stats.duration_pmf is None and stats.truncation_residual is None
        assert stats.mean_outage_duration is None and stats.mean_ioi is None
        assert stats.truncation_t == 0


class TestMeanDuration:
    def test_geometric_escape(self, two_state):
        p, mask, r, s = two_state
        # burst length is geometric with continuation probability 1 - s
        assert chain_stats(p, mask).mean_outage_duration == pytest.approx(1.0 / s, rel=1e-12)

    def test_no_chaining_is_exactly_one(self):
        p = np.array([[0.7, 0.3], [1.0, 0.0]])
        mask = np.array([False, True])
        assert chain_stats(p, mask).mean_outage_duration == pytest.approx(1.0, abs=1e-12)

    def test_slow_escape_past_series_cap(self):
        # escape probability 0.001 per period: the pmf walk reaches
        # SERIES_CAP before its tolerance; the exact mean is 1 / 0.001
        p = np.array([[0.5, 0.5], [0.001, 0.999]])
        stats = chain_stats(p, np.array([False, True]))
        assert stats.truncation_t == SERIES_CAP
        assert stats.mean_outage_duration == pytest.approx(1000.0, rel=1e-9)

    def test_mean_matches_pmf_expectation(self, cfg_b):
        stats = burst_stats(cfg_b, naive_policy(cfg_b))
        t = np.arange(1, stats.truncation_t + 1)
        assert stats.mean_outage_duration == pytest.approx(float(t @ stats.duration_pmf), rel=1e-9)

    def test_two_escape_rates(self):
        # half the bursts escape at rate 5e-5, half at 1e-4: mean (2e4 + 1e4) / 2;
        # a geometric tail fitted to the last two series terms misses it by 5.5 %
        p = np.array([[0.5, 0.25, 0.25], [5e-5, 0.99995, 0.0], [1e-4, 0.0, 0.9999]])
        mask = np.array([False, True, True])
        pi = steady_state(p)
        stats = chain_stats(p, mask)
        assert stats.mean_outage_duration == pytest.approx(15000.0, rel=1e-12)
        entry = reference_xi_set_to_set(pi, p, False, True, 1, mask)
        assert stats.xi_res_out_1 == entry
        assert abs(float(pi[mask].sum()) - entry * stats.mean_outage_duration) < IDENTITY_TOL

    @pytest.mark.parametrize("p", [
        [[0.5, 0.5], [0.0, 1.0]],
        # the closed part is the outage set's lowest state, so the zero
        # pivot comes after an outage state with an exit is eliminated
        [[0.5, 0.25, 0.25], [0.0, 1.0, 0.0], [0.5, 0.5, 0.0]],
    ], ids=["whole-set", "lower-state"])
    def test_closed_outage_set_raises(self, p):
        # a closed outage set holds all the stationary mass and no flow enters
        # it; fed a flow anyway, the mean solve reports that it has no exit
        p = np.array(p)
        mask = np.arange(len(p)) > 0
        stats = chain_stats(p, mask)
        assert not stats.defined and stats.p_out == 1.0
        u = vstep(np.full(len(p), 1 / len(p)) * ~mask, p)
        with pytest.raises(RuntimeError, match="no exit"):
            _exact_means(u[mask][None], p[mask][None], mask, np.array([u[mask].sum()]))


class TestMatchesReferenceSeries:
    @pytest.mark.parametrize("preset", ["scenario_a", "scenario_b", "scenario_c"])
    def test_named_and_random_policies(self, preset):
        cfg = load_scenario(preset).system
        policies = [naive_policy(cfg), min_error_policy(cfg)]
        policies += [optimize(cfg, kind, 0).final_policy for kind in PenaltyKind]
        rng = np.random.default_rng(23)
        policies += [random_policy(cfg, rng) for _ in range(20)]
        for pol in policies:
            self.check(cfg, pol)

    def test_walk_stopped_by_cap(self):
        cfg = load_scenario("scenario_a").system
        stats = self.check(cfg, cap_policy())
        assert stats.truncation_t == SERIES_CAP

    @staticmethod
    def check(cfg, pol):
        stats = burst_stats(cfg, pol)
        assert_matches_oracles(stats, build_transition_matrix(cfg, pol), transition_tables(cfg).outage)
        return stats


class TestMeanIoi:
    def test_two_state_closed_form(self, two_state):
        p, mask, r, s = two_state
        assert chain_stats(p, mask).mean_ioi == pytest.approx(1.0 / r, rel=1e-12)

    def test_grows_as_outage_vanishes(self):
        values = []
        for r in (0.2, 0.02, 0.002):
            p = np.array([[1 - r, r], [0.5, 0.5]])
            values.append(chain_stats(p, np.array([False, True])).mean_ioi)
        assert values[0] < values[1] < values[2]


class TestBurstStats:
    def test_rate_identity_random_policies(self, cfg_b):
        rng = np.random.default_rng(99)
        for _ in range(5):
            pol = random_policy(cfg_b, rng)
            stats = burst_stats(cfg_b, pol)
            assert stats.defined
            assert abs(stats.p_out - stats.xi_res_out_1 * stats.mean_outage_duration) < 1e-9

    def test_full_record(self, cfg_b):
        stats = burst_stats(cfg_b, naive_policy(cfg_b))
        p = build_transition_matrix(cfg_b, naive_policy(cfg_b))
        pi = steady_state(p)
        assert stats.p_out == pytest.approx(float(pi[outage_mask(5, 3)].sum()), rel=1e-12)
        assert stats.mean_outage_duration >= 1.0
        assert stats.mean_ioi >= 1.0
        assert stats.truncation_t == len(stats.duration_pmf)
        assert stats.truncation_residual < 1e-9
        assert stats.duration_pmf.sum() >= 1.0 - stats.truncation_residual - 1e-15

    def test_empty_outage_set_is_undefined(self):
        with pytest.warns(UserWarning):
            cfg = make_config(a_max=2, a_out=2)
        stats = burst_stats(cfg, naive_policy(cfg))
        assert not stats.defined
        assert stats.p_out == 0.0
        assert stats.mean_outage_duration is None
        assert stats.mean_ioi is None
        assert stats.duration_pmf is None


@pytest.fixture(scope="module", params=["scenario_a", "scenario_b", "scenario_c"])
def preset_batch(request):
    """A preset's named policies and 30 random ones, and their batch records."""
    cfg = load_scenario(request.param).system
    policies = [naive_policy(cfg), min_error_policy(cfg)]
    policies += [optimize(cfg, kind, 0).final_policy for kind in PenaltyKind]
    rng = np.random.default_rng(31)
    policies += [random_policy(cfg, rng) for _ in range(30)]
    return cfg, policies, burst_stats_many(cfg, policies)


class TestBurstStatsMany:
    def test_rows_match_single_runs_and_oracles(self, preset_batch):
        cfg, policies, many = preset_batch
        assert len(many) == len(policies)
        for pol, stats in zip(policies, many):
            assert record_bits(stats) == record_bits(burst_stats(cfg, pol))
            assert_matches_oracles(stats, build_transition_matrix(cfg, pol), transition_tables(cfg).outage)

    def test_permuted_batch_permutes_records(self, preset_batch):
        cfg, policies, many = preset_batch
        order = np.random.default_rng(7).permutation(len(policies))
        permuted = burst_stats_many(cfg, [policies[i] for i in order])
        assert [record_bits(s) for s in permuted] == [record_bits(many[i]) for i in order]

    def test_mixed_batch(self):
        # an undefined chain (device 1 never succeeds, so the outage set is
        # closed), the SERIES_CAP chain and short chains in one stack
        cfg = load_scenario("scenario_a").system
        policies = [naive_policy(cfg), np.zeros(cfg.n_states, dtype=int), cap_policy(),
                    min_error_policy(cfg), np.zeros(cfg.n_states, dtype=int)]
        many = burst_stats_many(cfg, policies)
        assert [s.defined for s in many] == [True, False, True, True, False]
        assert many[2].truncation_t == SERIES_CAP
        for pol, stats in zip(policies, many):
            assert record_bits(stats) == record_bits(burst_stats(cfg, pol))

    @pytest.mark.parametrize("order", [[0, 1, 2, 3, 4, 5, 6, 7, 8], [8, 6, 3, 0, 7, 5, 2, 4, 1]])
    def test_stops_at_block_edges(self, order):
        # the mass before step 1 is all of xi1, so the earliest stop is step 2;
        # the walks of 500 and 5 000 steps stop at the tolerance, not at SERIES_CAP
        steps = [2, 3, 31, 32, 33, 64, 65, 500, 5000]
        chains = [stop_at(steps[i]) for i in order]
        out = np.array([False, True])
        many = chain_burst_stats_many(np.stack(chains), out)
        for i, p, stats in zip(order, chains, many):
            assert stats.truncation_t == steps[i]
            assert record_bits(stats) == record_bits(chain_stats(p, out))
            assert_matches_oracles(stats, p, out)

    def test_records_own_their_chains(self, cfg_b):
        # the records walk their pmf from their own copies, whatever the
        # caller does to its arrays afterwards
        ps = build_transition_matrices(cfg_b, [naive_policy(cfg_b), min_error_policy(cfg_b)])
        out = transition_tables(cfg_b).outage.copy()
        want = [s.duration_pmf.tobytes() for s in chain_burst_stats_many(ps, out)]
        many = chain_burst_stats_many(ps, out)
        ps[:] = np.eye(ps.shape[1])
        out[:] = ~out
        assert [s.duration_pmf.tobytes() for s in many] == want

    def test_batch_holds_one_stack_at_a_time(self, cfg_b):
        # 100 policies in stacks of 52: ~1.15 MB traced, where the whole
        # stack at once peaked at ~1.69 MB and two copies of it at ~2.22 MB
        rng = np.random.default_rng(0)
        policies = [random_policy(cfg_b, rng) for _ in range(100)]
        burst_stats_many(cfg_b, policies[:1])
        assert traced_peak(lambda: burst_stats_many(cfg_b, policies)) < 1_250_000

    def test_stacks_give_the_records_of_stacks_of_one(self, cfg_b):
        # two full stacks and three policies more, with the starved policy
        # (the outage set holds all the mass, so its record is undefined)
        # last in the first stack and naive first in the second
        size = burstiness._stack_size(cfg_b)
        rng = np.random.default_rng(35)
        policies = [random_policy(cfg_b, rng) for _ in range(2 * size + 3)]
        policies[size - 1] = extreme_policies(cfg_b)[0]
        policies[size] = naive_policy(cfg_b)
        many = burst_stats_many(cfg_b, policies)
        assert len(many) == len(policies)
        assert [i for i, s in enumerate(many) if not s.defined] == [size - 1]
        for pol, stats in zip(policies, many):
            assert record_bits(stats) == record_bits(burst_stats(cfg_b, pol))

    def test_invalid_policy_in_last_stack_raises_before_any_analysis(self, cfg_b, monkeypatch):
        size = burstiness._stack_size(cfg_b)
        rng = np.random.default_rng(35)
        policies = [random_policy(cfg_b, rng) for _ in range(2 * size + 3)]
        policies[-1] = np.full(cfg_b.n_states, cfg_b.link.blocklength_total + 1)

        def analysed(*args):
            raise AssertionError("a stack was analysed before every policy was validated")

        monkeypatch.setattr(burstiness, "chain_burst_stats_many", analysed)
        with pytest.raises(ValueError, match=r"policy entries must lie in \[0, 1000\]"):
            burst_stats_many(cfg_b, policies)

    def test_public_batch_does_not_copy_the_stack(self, cfg_b):
        # the records keep their outage rows, not the chains, so a caller's
        # stack goes in uncopied: ~1.19 MB traced, where a copy of the 100
        # chains peaked at ~1.70 MB
        rng = np.random.default_rng(0)
        ps = build_transition_matrices(cfg_b, [random_policy(cfg_b, rng) for _ in range(100)])
        out = transition_tables(cfg_b).outage
        chain_burst_stats_many(ps[:1], out)
        assert traced_peak(lambda: chain_burst_stats_many(ps, out)) < 1_400_000

    def test_errors_keep_type_and_message(self):
        good = np.array([[0.7, 0.3], [0.5, 0.5]])
        out = np.array([False, True])
        with pytest.raises(SteadyStateError, match="singular"):
            chain_burst_stats_many(np.stack([good, np.eye(2)]), out)
        with pytest.raises(ValueError, match="rows must sum to 1"):
            chain_burst_stats_many(np.stack([good, [[0.5, 0.4], [0.1, 0.9]]]), out)
        with pytest.raises(ValueError, match=r"need a \(B, n, n\) stack"):
            chain_burst_stats_many(good, out)
        # a closed outage set fed a flow anyway, after a chain with an exit
        closed = np.array([[0.5, 0.5], [0.0, 1.0]])
        u = np.array([[0.0, 0.3], [0.0, 0.25]])
        with pytest.raises(RuntimeError, match="no exit"):
            _exact_means(u[:, out], np.stack([good, closed])[:, out], out, u[:, 1])

    @pytest.mark.parametrize("length", [2, 4], ids=["short", "long"])
    def test_mask_of_wrong_length_raises(self, length):
        p = np.array([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5], [0.1, 0.0, 0.9]])
        with pytest.raises(ValueError, match=rf"mask shape \({length},\), stack shape \(1, 3, 3\)"):
            chain_burst_stats_many(p[None], np.arange(length) % 2 == 1)

    def test_empty_stack_gives_no_records(self):
        assert chain_burst_stats_many(np.zeros((0, 3, 3)), np.array([False, False, True])) == []

    def test_no_policies_give_no_records(self, cfg_b):
        assert burst_stats_many(cfg_b, []) == []

    def test_overflowing_solve_raises(self):
        # a valid chain whose stationary solve overflows: its p_out read NaN
        p = np.array([[0.0, 1.0, 0.0], [1e-300, 0.5, 0.5], [0.0, 1e-300, 1.0]])
        with pytest.raises(SteadyStateError, match="overflowed"):
            chain_burst_stats_many(p[None], np.array([False, False, True]))


class TestIdentityGate:
    """The rate identity's level, pinned at today's absolute 1e-9. On the
    two-state chain with every entry 0.5, p_out = 0.5, the entry flow is
    0.25 and the mean burst 2, all exact, so scaling the mean by 1 + d puts
    the gap at 0.5 d."""

    LEVEL = 1e-9
    CHAIN = np.array([[[0.5, 0.5], [0.5, 0.5]]])
    OUT = np.array([False, True])

    @pytest.mark.parametrize("sign", [1, -1], ids=["longer", "shorter"])
    @pytest.mark.parametrize("factor, raises", [(0.9, False), (1.1, True)], ids=["below", "above"])
    def test_gap_at_the_level(self, monkeypatch, sign, factor, raises):
        d = sign * factor * self.LEVEL / 0.5
        monkeypatch.setattr(burstiness, "_exact_means", lambda *args: _exact_means(*args) * (1 + d))
        if raises:
            with pytest.raises(RuntimeError, match="identity violated"):
                chain_burst_stats_many(self.CHAIN, self.OUT)
        else:
            [record] = chain_burst_stats_many(self.CHAIN, self.OUT)
            assert record.mean_outage_duration == 2.0 * (1 + d)

    def test_nan_mean_fails_the_gate(self, monkeypatch):
        monkeypatch.setattr(burstiness, "_exact_means", lambda *args: _exact_means(*args) * np.nan)
        with pytest.raises(RuntimeError, match="identity violated"):
            chain_burst_stats_many(self.CHAIN, self.OUT)


class TestPmfWalkedWhenRead:
    """The burst-length pmf is walked on a record's first read of it, one
    chain at a time; the batch computes everything else."""

    @staticmethod
    def count_walks(monkeypatch):
        walks = []

        def counted(*args):
            walks.append(args)
            return walk(*args)

        walk = burstiness._duration_pmf
        monkeypatch.setattr(burstiness, "_duration_pmf", counted)
        return walks

    def test_batch_does_not_walk(self, cfg_b, monkeypatch):
        def no_walk(*args):
            raise AssertionError("the batch walked a pmf")

        rng = np.random.default_rng(3)
        policies = [naive_policy(cfg_b), min_error_policy(cfg_b)] + [random_policy(cfg_b, rng) for _ in range(10)]
        want = [(s.p_out, s.xi_res_out_1, s.mean_outage_duration, s.mean_ioi)
                for s in burst_stats_many(cfg_b, policies)]
        monkeypatch.setattr(burstiness, "_duration_pmf", no_walk)
        many = burst_stats_many(cfg_b, policies)
        assert [(s.p_out, s.xi_res_out_1, s.mean_outage_duration, s.mean_ioi) for s in many] == want
        assert all(s.defined for s in many)
        with pytest.raises(AssertionError, match="walked"):
            many[0].duration_pmf

    def test_each_record_walks_once(self, cfg_b, monkeypatch):
        walks = self.count_walks(monkeypatch)
        stats = burst_stats(cfg_b, naive_policy(cfg_b))
        assert walks == []
        first = stats.duration_pmf
        for _ in range(3):
            assert stats.duration_pmf is first
            assert stats.truncation_t == len(first)
            assert stats.truncation_residual == max(0.0, 1.0 - float(first.sum()))
        assert len(walks) == 1

    def test_undefined_record_never_walks(self, two_state, monkeypatch):
        walks = self.count_walks(monkeypatch)
        p, _, _, _ = two_state
        stats = chain_stats(p, np.array([False, False]))
        assert (stats.duration_pmf, stats.truncation_t, stats.truncation_residual) == (None, 0, None)
        assert walks == []

    def test_record_keeps_its_own_chain(self, two_state):
        # the walk runs after the call returns, so it must not read the
        # caller's arrays, which may have changed by then
        p, mask, _, _ = two_state
        want = record_bits(chain_stats(p, mask))
        ps, out = p[None].copy(), mask.copy()
        stats = chain_burst_stats_many(ps, out)[0]
        ps[:] = np.eye(2)
        out[:] = False
        assert record_bits(stats) == want


@settings(deadline=None)
@given(st.integers(1, 4), st.integers(1, 6), st.integers(1, 140), st.data())
def test_compress_sum_matches_masked_row_sum(n_chains, n_rows, n, data):
    # the analysis reads masked masses as compress(...).sum over the last
    # axis of a stack or a block of walk rows; it must equal the 1-D
    # x[mask].sum() of one row, bit for bit
    x = data.draw(arrays(np.float64, (n_chains, n_rows, n), elements=st.floats(0.0, 1.0)))
    mask = data.draw(arrays(np.bool_, n))
    sums = x.compress(mask, axis=2).sum(axis=2)
    for c in range(n_chains):
        for r in range(n_rows):
            assert sums[c, r].tobytes() == x[c, r][mask].sum().tobytes()
    flat = x[:, 0].compress(mask, axis=1).sum(axis=1)
    assert [s.tobytes() for s in flat] == [x[c, 0][mask].sum().tobytes() for c in range(n_chains)]
