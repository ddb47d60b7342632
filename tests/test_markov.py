"""Transition law, matrix assembly, stationary solve, and the outage rate.

The program builds the age chain, the full (age, age, bit, bit) chain with
its fresh channel bits lumped out. The full chain survives here as the
reference_build_transition_matrix oracle, and the lumpability tests check
every analytic output of the age chain against it.
"""

import contextlib
import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from aoi_outage.burstiness import burst_stats, chain_burst_stats
from aoi_outage.fbl import block_error_rate
from aoi_outage.markov import (
    SteadyStateError,
    TransitionTables,
    branch_probabilities,
    build_transition_matrices,
    build_transition_matrix,
    outage_probability,
    steady_state,
    steady_states,
    transition_tables,
    validate_policy,
)
from aoi_outage.optimizer import PenaltyKind, min_error_policy, naive_policy, optimize
from aoi_outage.scenarios import load_scenario
from aoi_outage.states import outage_mask

from conftest import (
    ReferenceState,
    make_config,
    random_policy,
    reference_bit_probability,
    reference_gth,
    reference_enumerate_states,
    reference_gamma_for_bit,
    reference_state_to_index,
    reference_validate,
)

PRESET_NAMES = ("scenario_a", "scenario_b", "scenario_c")


def reference_transition_prob(cfg, lam, from_state, to_state):
    """Scalar one-step probability of `to_state` given `from_state` under
    allocation lam.

    Each device's age either resets to 1 (success) or increments with
    clamping at a_max (failure); branch probabilities accumulate when the
    clamp makes the two outcomes coincide. Fresh channel bits are weighted
    by their Bernoulli probabilities.
    """
    n = cfg.link.blocklength_total
    if not 0 <= lam <= n:
        raise ValueError(f"allocation must lie in [0, {n}], got {lam}")
    reference_validate(from_state, cfg.a_max)
    reference_validate(to_state, cfg.a_max)
    d = cfg.link.payload_bits
    e1 = block_error_rate(lam, d, reference_gamma_for_bit(cfg.profile, from_state.x1))
    e2 = block_error_rate(n - lam, d, reference_gamma_for_bit(cfg.profile, from_state.x2))
    clamp1 = min(from_state.a1 + 1, cfg.a_max)
    clamp2 = min(from_state.a2 + 1, cfg.a_max)
    p1 = (1.0 - e1) * (to_state.a1 == 1) + e1 * (to_state.a1 == clamp1)
    p2 = (1.0 - e2) * (to_state.a2 == 1) + e2 * (to_state.a2 == clamp2)
    w = reference_bit_probability(cfg.profile, 1, to_state.x1) * reference_bit_probability(
        cfg.profile, 2, to_state.x2
    )
    return p1 * p2 * w


def reference_build_transition_matrix(cfg, policy, tables):
    """The per-state loop the scatter replaced: each state's four age
    branches, each spread over the fresh channel bits, added in branch order."""
    pol = validate_policy(policy, cfg)
    n = tables.n_total
    p = np.zeros((cfg.n_states, cfg.n_states))
    for i, s in enumerate(reference_enumerate_states(cfg.a_max)):
        e1 = tables.eps_by_bit[s.x1][pol[i]]
        e2 = tables.eps_by_bit[s.x2][n - pol[i]]
        c1 = min(s.a1 + 1, cfg.a_max)
        c2 = min(s.a2 + 1, cfg.a_max)
        for a1n, p1 in ((1, 1.0 - e1), (c1, e1)):
            for a2n, p2 in ((1, 1.0 - e2), (c2, e2)):
                base = reference_state_to_index(ReferenceState(a1n, a2n, 0, 0), cfg.a_max) - 1
                p[i, base : base + 4] += (p1 * p2) * tables.bit_weights
    return p


def reference_lump(p, bit_weights):
    """Age chain of a full-chain matrix p: Q[a, a'] = sum_x bit_weights[x] *
    sum_x' p[(a, x), (a', x')], the rows of each age pair mixed by their bit
    probabilities and the columns summed over the successor's bits."""
    n = p.shape[0] // 4
    mixed = (p * np.tile(bit_weights, n)[:, None]).reshape(n, 4, n, 4)
    return mixed.sum(axis=(1, 3))


def reference_k_step_distribution(p, initial_position, k):
    """State distribution after k periods from the 0-based initial position,
    by iterated vector-matrix products."""
    v = np.zeros(p.shape[0])
    v[initial_position] = 1.0
    for _ in range(k):
        v = v @ p
    return v


class TestTransitionProb:
    def test_double_success_branch(self, mid_cfg):
        cfg = mid_cfg
        n = cfg.link.blocklength_total
        lam = 13
        frm = ReferenceState(2, 3, 1, 0)
        e1 = block_error_rate(lam, cfg.link.payload_bits, cfg.profile.gamma_good)
        e2 = block_error_rate(n - lam, cfg.link.payload_bits, cfg.profile.gamma_bad)
        to = ReferenceState(1, 1, 1, 0)
        expected = (1 - e1) * (1 - e2) * cfg.profile.alpha_1 * (1 - cfg.profile.alpha_2)
        assert reference_transition_prob(cfg, lam, frm, to) == pytest.approx(expected, rel=1e-14)

    def test_mixed_branch_with_clamp(self, mid_cfg):
        cfg = mid_cfg
        lam = 20
        frm = ReferenceState(3, 1, 0, 1)  # a1 already at the cap
        e1 = block_error_rate(lam, cfg.link.payload_bits, cfg.profile.gamma_bad)
        e2 = block_error_rate(
            cfg.link.blocklength_total - lam, cfg.link.payload_bits, cfg.profile.gamma_good
        )
        to = ReferenceState(3, 2, 0, 0)  # device 1 fails (clamped), device 2 fails
        expected = e1 * e2 * (1 - cfg.profile.alpha_1) * (1 - cfg.profile.alpha_2)
        assert reference_transition_prob(cfg, lam, frm, to) == pytest.approx(expected, rel=1e-14)

    def test_unchanged_age_is_impossible(self, mid_cfg):
        # an age below the cap must either reset to 1 or increment
        frm = ReferenceState(2, 1, 0, 0)
        to = ReferenceState(2, 1, 0, 0)
        assert reference_transition_prob(mid_cfg, 10, frm, to) == 0.0

    @pytest.mark.parametrize("lam", [0, 7, 40])
    def test_total_probability(self, mid_cfg, lam):
        frm = ReferenceState(2, 3, 1, 0)
        total = sum(
            reference_transition_prob(mid_cfg, lam, frm, to) for to in reference_enumerate_states(mid_cfg.a_max)
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_allocation(self, mid_cfg):
        frm = ReferenceState(1, 1, 0, 0)
        with pytest.raises(ValueError):
            reference_transition_prob(mid_cfg, -1, frm, frm)
        with pytest.raises(ValueError):
            reference_transition_prob(mid_cfg, 41, frm, frm)


class TestBuildMatrix:
    def test_degenerate_single_age(self):
        # with the age cap at 1 the age chain is one absorbing age pair, and
        # every row of the full oracle is the product channel-bit law
        with pytest.warns(UserWarning):
            cfg = make_config(a_max=1, a_out=1)
        tables = TransitionTables(cfg)
        assert build_transition_matrix(cfg, [7, 0, 40, 21]) == pytest.approx(
            np.ones((1, 1)), abs=1e-15
        )
        full = reference_build_transition_matrix(cfg, [7, 0, 40, 21], tables)
        a1, a2 = cfg.profile.alpha_1, cfg.profile.alpha_2
        row = [(1 - a1) * (1 - a2), (1 - a1) * a2, a1 * (1 - a2), a1 * a2]
        for i in range(4):
            assert full[i] == pytest.approx(row, rel=1e-14)

    def test_rows_sum_to_one(self, small_cfg):
        rng = np.random.default_rng(11)
        for _ in range(5):
            p = build_transition_matrix(small_cfg, random_policy(small_cfg, rng))
            assert np.abs(p.sum(axis=1) - 1.0).max() <= 1e-12
            assert p.min() >= 0.0

    def test_matches_pairwise_probabilities(self, small_cfg):
        rng = np.random.default_rng(5)
        pol = random_policy(small_cfg, rng)
        p = build_transition_matrix(small_cfg, pol)
        assert p.shape == (small_cfg.a_max**2, small_cfg.a_max**2)
        states = reference_enumerate_states(small_cfg.a_max)
        full = np.array([
            [reference_transition_prob(small_cfg, int(pol[i]), frm, to) for to in states]
            for i, frm in enumerate(states)
        ])
        assert p == pytest.approx(reference_lump(full, transition_tables(small_cfg).bit_weights), abs=1e-15)

    def test_policy_validation(self, small_cfg):
        with pytest.raises(ValueError):
            build_transition_matrix(small_cfg, [0] * 15)
        with pytest.raises(ValueError):
            build_transition_matrix(small_cfg, [41] + [0] * 15)
        for entries in ([0.5] * 16, [np.nan] * 16, ["3"] * 16, [None] * 16, [True] * 16):
            with pytest.raises(ValueError, match="must be integers"):
                validate_policy(entries, small_cfg)
        # integral floats are accepted
        pol = validate_policy(np.full(16, 3.0), small_cfg)
        assert pol.dtype == np.int64


def add_at_scatter(cfg, policy, tables):
    """The age-chain matrix as a sequential np.add.at scatter of the
    transition law, in state order, then branch order."""
    e1, e2 = tables.error_rates(validate_policy(policy, cfg))
    branch = np.stack([(1.0 - e1) * (1.0 - e2), (1.0 - e1) * e2, e1 * (1.0 - e2), e1 * e2], axis=-1)
    ages = np.arange(cfg.a_max**2)[:, None, None]
    cols = np.repeat(tables.succ[:, None, :], 4, axis=1)  # [g, k, b]
    q = np.zeros((cfg.a_max**2, cfg.a_max**2))
    np.add.at(q, (ages, cols), branch * tables.bit_weights[:, None])
    return q


class TestStacks:
    @pytest.mark.parametrize("a_max, a_out", [(1, 1), (2, 1), (5, 3)])
    def test_stack_matches_per_policy_builds(self, a_max, a_out):
        # at a_max = 1 every branch of every state lands in the one column
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            cfg = make_config(a_max=a_max, a_out=a_out)
        tables = TransitionTables(cfg)
        rng = np.random.default_rng(a_max)
        policies = [random_policy(cfg, rng) for _ in range(7)] + [naive_policy(cfg)]
        stack = build_transition_matrices(cfg, policies)
        assert stack.shape == (len(policies), a_max**2, a_max**2)
        for pol, q in zip(policies, stack):
            assert np.array_equal(q, build_transition_matrix(cfg, pol))
            assert np.array_equal(q, add_at_scatter(cfg, pol, tables))

    def test_stack_rejects_any_bad_policy(self, small_cfg):
        good = naive_policy(small_cfg)
        with pytest.raises(ValueError, match="must lie in"):
            build_transition_matrices(small_cfg, [good, [41] + [0] * 15])

    @pytest.mark.parametrize("preset", PRESET_NAMES)
    def test_stacked_solve_matches_one_at_a_time(self, preset):
        cfg = load_scenario(preset).system
        rng = np.random.default_rng(13)
        policies = [random_policy(cfg, rng) for _ in range(12)] + [naive_policy(cfg)]
        stack = build_transition_matrices(cfg, policies)
        pis = steady_states(stack)
        for p, pi in zip(stack, pis):
            assert pi.tobytes() == steady_state(p).tobytes()

    def test_stacked_solve_gates_every_chain(self):
        good = np.array([[0.7, 0.3], [0.1, 0.9]])
        with pytest.raises(SteadyStateError, match="singular"):
            steady_states(np.stack([good, np.eye(2)]))
        with pytest.raises(ValueError, match="rows must sum to 1"):
            steady_states(np.stack([good, [[0.5, 0.4], [0.1, 0.9]]]))
        with pytest.raises(ValueError, match=r"need a \(B, n, n\) stack"):
            steady_states(good)
        with pytest.raises(ValueError, match="must be square"):
            steady_state(np.stack([good, good]))


class TestTransitionTables:
    @pytest.mark.parametrize("a_max", [1, 2, 5])
    def test_age_positions_match_the_state_oracles(self, a_max):
        with pytest.warns(UserWarning) if a_max == 1 else contextlib.nullcontext():
            t = TransitionTables(make_config(a_max=a_max, a_out=1))
        assert t.ages.shape == (2, a_max**2)
        assert t.succ.shape == (a_max**2, 4)
        for i, s in enumerate(reference_enumerate_states(a_max)):
            g, k = divmod(i, 4)  # state 4 * g + k
            assert t.ages[:, g].tolist() == [s.a1, s.a2]
            assert t.bits[k].tolist() == [s.x1, s.x2]
            c1, c2 = min(s.a1 + 1, a_max), min(s.a2 + 1, a_max)
            # branch order 2 * fail1 + fail2; fresh bits k' give state 4 * succ + k'
            branches = [(1, 1), (1, c2), (c1, 1), (c1, c2)]
            for succ, (b1, b2) in zip(t.succ[g].tolist(), branches):
                assert [4 * succ + kn for kn in range(4)] == [
                    reference_state_to_index(ReferenceState(b1, b2, x1, x2), a_max) - 1
                    for x1 in (0, 1) for x2 in (0, 1)
                ]

    def test_bit_weights_are_products_of_bit_probabilities(self, small_cfg):
        profile = small_cfg.profile
        expected = [
            reference_bit_probability(profile, 1, x1) * reference_bit_probability(profile, 2, x2)
            for x1 in (0, 1)
            for x2 in (0, 1)
        ]
        assert transition_tables(small_cfg).bit_weights.tolist() == expected

    def test_error_rates_follow_the_channel_bits(self, small_cfg):
        pol = random_policy(small_cfg, np.random.default_rng(4))
        e1, e2 = transition_tables(small_cfg).error_rates(pol)
        assert e1.shape == e2.shape == (small_cfg.a_max**2, 4)
        n, d = small_cfg.link.blocklength_total, small_cfg.link.payload_bits
        for i, s in enumerate(reference_enumerate_states(small_cfg.a_max)):
            g, k = divmod(i, 4)
            assert e1[g, k] == block_error_rate(int(pol[i]), d, reference_gamma_for_bit(small_cfg.profile, s.x1))
            assert e2[g, k] == block_error_rate(n - int(pol[i]), d, reference_gamma_for_bit(small_cfg.profile, s.x2))

    def test_error_rates_per_bit_pair(self, small_cfg):
        # every allocation, with the policy constant over the age positions
        tables = transition_tables(small_cfg)
        n, d = small_cfg.link.blocklength_total, small_cfg.link.payload_bits
        gamma = [reference_gamma_for_bit(small_cfg.profile, bit) for bit in (0, 1)]
        for lam in range(n + 1):
            e1, e2 = tables.error_rates(np.full(small_cfg.n_states, lam))
            for k, (x1, x2) in enumerate(tables.bits.tolist()):
                assert (e1[:, k] == block_error_rate(lam, d, gamma[x1])).all()
                assert (e2[:, k] == block_error_rate(n - lam, d, gamma[x2])).all()


class TestSharedTables:
    """transition_tables(cfg) is the one source of the law: one read-only
    instance per distinct config, and the tables= keyword that optimize,
    burst_stats and min_error_policy still accept is never read."""

    def test_equal_configs_share_one_instance(self):
        assert transition_tables(make_config(a_max=3)) is transition_tables(make_config(a_max=3))
        preset = transition_tables(load_scenario("scenario_b").system)
        assert preset is transition_tables(load_scenario("scenario_b").system)

    def test_each_config_gets_its_own_instance(self):
        cfg = make_config(a_max=3, a_out=1)
        other_a_out = dataclasses.replace(cfg, a_out=2)
        other_initial = dataclasses.replace(cfg, initial=(2, 1, 0, 0))
        shared = transition_tables(cfg)
        assert transition_tables(other_a_out) is not shared
        assert transition_tables(other_initial) is not shared
        assert transition_tables(other_a_out).outage.tolist() != shared.outage.tolist()
        assert transition_tables(other_initial).cfg == other_initial

    @pytest.mark.parametrize("name", ["eps_by_bit", "bits", "ages", "succ", "outage", "bit_weights"])
    def test_tables_are_read_only(self, small_cfg, name):
        for tables in (transition_tables(small_cfg), TransitionTables(small_cfg)):
            table = getattr(tables, name)
            with pytest.raises(ValueError, match="read-only"):
                table[(0,) * table.ndim] = table[(0,) * table.ndim]

    @pytest.mark.parametrize("preset", PRESET_NAMES)
    def test_tables_keyword_is_not_read(self, preset):
        cfg = load_scenario(preset).system
        other = TransitionTables(make_config())  # another config's law: it would change every result
        for tables in (TransitionTables(cfg), other):
            assert np.array_equal(min_error_policy(cfg, tables=tables), min_error_policy(cfg))
            for kind in PenaltyKind:
                got, want = optimize(cfg, kind, 0, tables=tables), optimize(cfg, kind, 0)
                assert np.array_equal(got.final_policy, want.final_policy)
                assert (got.iterations, got.convergence_trace, got.best_p_out) == (
                    want.iterations, want.convergence_trace, want.best_p_out)
                got, want = burst_stats(cfg, want.final_policy, tables=tables), burst_stats(cfg, want.final_policy)
                assert (got.p_out, got.xi_res_out_1, got.mean_outage_duration) == (
                    want.p_out, want.xi_res_out_1, want.mean_outage_duration)
                assert np.array_equal(got.duration_pmf, want.duration_pmf)


@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_branch_probabilities_are_a_law(e1, e2):
    branch = branch_probabilities(np.array([e1]), np.array([e2]))
    assert len(branch) == 4
    assert min(b[0] for b in branch) >= 0.0
    assert abs(sum(b[0] for b in branch) - 1.0) <= 4 * np.finfo(float).eps


def lumpability_policies(cfg, rng):
    """The named policies of a preset and 30 random ones."""
    policies = [naive_policy(cfg), min_error_policy(cfg)]
    policies += [optimize(cfg, kind, 0).final_policy for kind in PenaltyKind]
    return policies + [random_policy(cfg, rng) for _ in range(30)]


class TestLumpability:
    """The age chain against the full chain it lumps (Kemeny & Snell,
    Finite Markov Chains, section 6.3): its matrix, its stationary law, and
    every burst statistic."""

    @pytest.mark.parametrize("preset", PRESET_NAMES)
    def test_presets(self, preset):
        cfg = load_scenario(preset).system
        tables = TransitionTables(cfg)
        full_out = np.repeat(tables.outage, 4)
        for pol in lumpability_policies(cfg, np.random.default_rng(17)):
            full = reference_build_transition_matrix(cfg, pol, tables)
            q = build_transition_matrix(cfg, pol)
            assert np.abs(reference_lump(full, tables.bit_weights) - q).max() <= 1e-15
            # the full chain's stationary law is the age chain's times the
            # bit weights
            nu = steady_state(q)
            assert np.abs(steady_state(full) - np.kron(nu, tables.bit_weights)).max() <= 1e-14
            got, want = burst_stats(cfg, pol), chain_burst_stats(full, full_out)
            assert got.p_out == pytest.approx(want.p_out, rel=1e-10)
            for field in ("xi_res_out_1", "mean_outage_duration", "mean_ioi"):
                assert getattr(got, field) == pytest.approx(getattr(want, field), rel=1e-13)
            assert got.truncation_t == want.truncation_t
            assert np.abs(got.duration_pmf - want.duration_pmf).max() <= 1e-14

    def test_single_age(self):
        # with a_max = 1 all four branches land on the one age pair
        with pytest.warns(UserWarning):
            cfg = make_config(a_max=1, a_out=1)
        tables = TransitionTables(cfg)
        rng = np.random.default_rng(2)
        for pol in [[7, 0, 40, 21]] + [random_policy(cfg, rng) for _ in range(20)]:
            full = reference_build_transition_matrix(cfg, pol, tables)
            q = build_transition_matrix(cfg, pol)
            assert np.abs(reference_lump(full, tables.bit_weights) - q).max() <= 1e-15


class TestSteadyState:
    def test_two_state_closed_form(self):
        p = np.array([[0.7, 0.3], [0.1, 0.9]])
        pi = steady_state(p)
        assert pi == pytest.approx([0.25, 0.75], abs=1e-14)

    def test_doubly_stochastic_is_uniform(self):
        p = np.array(
            [
                [0.1, 0.2, 0.3, 0.4],
                [0.4, 0.3, 0.2, 0.1],
                [0.2, 0.1, 0.4, 0.3],
                [0.3, 0.4, 0.1, 0.2],
            ]
        )
        assert steady_state(p) == pytest.approx([0.25] * 4, abs=1e-14)

    def test_residual_invariant_at_scale(self, cfg_b):
        p = build_transition_matrix(cfg_b, naive_policy(cfg_b))
        pi = steady_state(p)
        assert np.abs(pi @ p - pi).max() < 1e-10
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)
        assert pi.min() >= 0.0

    def test_rejects_reducible_chain(self):
        with pytest.raises(SteadyStateError):
            steady_state(np.eye(2))

    @pytest.mark.parametrize("p, pi", [
        # transient state below the closed class, above it, and between two
        # closed-class states; its mass is exactly 0
        ([[0.5, 0.5, 0.0], [0.0, 0.3, 0.7], [0.0, 0.6, 0.4]], [0.0, 6 / 13, 7 / 13]),
        ([[0.3, 0.7, 0.0], [0.6, 0.4, 0.0], [0.2, 0.3, 0.5]], [6 / 13, 7 / 13, 0.0]),
        ([[0.3, 0.0, 0.7], [0.2, 0.5, 0.3], [0.6, 0.0, 0.4]], [6 / 13, 0.0, 7 / 13]),
        # an absorbing state, reached through two transient ones
        ([[0.2, 0.8, 0.0, 0.0], [0.0, 0.5, 0.0, 0.5], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.9, 0.1]],
         [0.0, 0.0, 1.0, 0.0]),
    ])
    def test_transient_states_get_no_mass(self, p, pi):
        got = steady_state(np.array(p))
        assert got == pytest.approx(pi, rel=1e-15, abs=0.0)
        assert np.array_equal(got == 0.0, np.array(pi) == 0.0)

    @pytest.mark.parametrize("p", [
        [[0.5, 0.5, 0.0, 0.0], [0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.3, 0.7], [0.0, 0.0, 0.6, 0.4]],
        # the two closed classes interleaved, and a transient state feeding both
        [[0.3, 0.0, 0.7, 0.0], [0.0, 0.5, 0.0, 0.5], [0.6, 0.0, 0.4, 0.0], [0.0, 0.5, 0.0, 0.5]],
        [[1.0, 0.0, 0.0], [0.2, 0.6, 0.2], [0.0, 0.0, 1.0]],
    ], ids=["blocks", "interleaved", "transient-between"])
    def test_rejects_two_closed_classes(self, p):
        with pytest.raises(SteadyStateError, match="singular stationary system"):
            steady_state(np.array(p))

    def test_transient_chain_in_a_stack(self):
        # the stack's ergodic chain keeps its bits; one bad chain fails it all
        good = np.array([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1], [0.3, 0.3, 0.4]])
        transient = np.array([[0.5, 0.5, 0.0], [0.0, 0.3, 0.7], [0.0, 0.6, 0.4]])
        pis = steady_states(np.stack([good, transient]))
        assert pis[0].tobytes() == steady_state(good).tobytes()
        assert pis[1].tobytes() == steady_state(transient).tobytes()
        with pytest.raises(SteadyStateError, match="singular"):
            steady_states(np.stack([good, transient, np.eye(3)]))


class TestGthOracle:
    """The stationary law against a 50-digit GTH of the same float chain,
    entry by entry. At the parent's LU solve the worst entry was off by
    1.2e-5 relative (a state of mass 1.9e-11, a random policy on
    scenario_a); GTH's worst measured 8.5e-16."""

    REL = 2e-15

    @pytest.mark.parametrize("preset", PRESET_NAMES)
    def test_presets(self, preset):
        cfg = load_scenario(preset).system
        policies = [naive_policy(cfg), min_error_policy(cfg)]
        policies += [optimize(cfg, kind, 0).final_policy for kind in PenaltyKind]
        rng = np.random.default_rng(29)
        policies += [random_policy(cfg, rng) for _ in range(6)]
        stack = build_transition_matrices(cfg, policies)
        for p, pi in zip(stack, steady_states(stack)):
            ref = np.array(reference_gth(p))
            assert (np.abs(pi - ref) / ref).max() <= self.REL

    def test_hand_chains(self):
        rng = np.random.default_rng(8)
        for n in (2, 3, 7, 16):
            raw = rng.random((n, n)) ** 6  # entries spread over several decades
            p = raw / raw.sum(axis=1, keepdims=True)
            ref = np.array(reference_gth(p))
            assert (np.abs(steady_state(p) - ref) / ref).max() <= self.REL

    def test_rejects_non_stochastic(self):
        with pytest.raises(ValueError):
            steady_state(np.array([[0.5, 0.4], [0.1, 0.9]]))
        with pytest.raises(ValueError):
            steady_state(np.array([[1.2, -0.2], [0.1, 0.9]]))


class TestKStep:
    def test_converges_to_steady_state(self, small_cfg):
        rng = np.random.default_rng(23)
        for _ in range(5):
            pol = random_policy(small_cfg, rng, low=1)
            p = build_transition_matrix(small_cfg, pol)
            pi = steady_state(p)
            v = reference_k_step_distribution(p, small_cfg.initial_position // 4, 10_000)
            assert 0.5 * np.abs(v - pi).sum() < 1e-8

    def test_time_average_matches_stationary_outage(self, small_cfg):
        # the running occupation average of the outage set approaches its mass
        pol = random_policy(small_cfg, np.random.default_rng(3), low=1)
        p = build_transition_matrix(small_cfg, pol)
        pi = steady_state(p)
        mask = outage_mask(small_cfg.a_max, small_cfg.a_out)
        v = np.zeros(len(p))
        v[small_cfg.initial_position // 4] = 1.0
        running = 0.0
        for _ in range(5000):
            v = v @ p
            running += v[mask].sum()
        assert running / 5000 == pytest.approx(outage_probability(pi, small_cfg), abs=1e-3)


class TestOutageProbability:
    def test_uniform_distribution(self):
        cfg = make_config(n=1000, d=16, a_max=5, a_out=3)
        pi = np.full(25, 0.04)
        assert outage_probability(pi, cfg) == pytest.approx(0.64, rel=1e-12)

    def test_empty_outage_set(self):
        with pytest.warns(UserWarning):
            cfg = make_config(a_max=2, a_out=2)
        pi = np.full(4, 1 / 4)
        assert outage_probability(pi, cfg) == 0.0

    def test_shape_check(self, small_cfg):
        # the law is over the a_max**2 age positions, not the 4 * a_max**2 states
        with pytest.raises(ValueError):
            outage_probability(np.ones(16) / 16, small_cfg)
        with pytest.raises(ValueError):
            outage_probability(np.ones(9) / 9, small_cfg)
