"""Penalties, the per-state sweep, the optimizer against the recursive loop,
and benchmark policies."""

import contextlib
import math

import numpy as np
import pytest

from aoi_outage.fbl import ChannelProfile, LinkParams
from aoi_outage.markov import (
    TransitionTables,
    build_transition_matrix,
    outage_probability,
    steady_state,
    transition_tables,
)
from aoi_outage.optimizer import (
    PenaltyKind,
    _age_weight_grid,
    improve_policy,
    min_error_policy,
    naive_policy,
    optimize,
)
from aoi_outage.scenarios import load_scenario
from aoi_outage.states import SystemConfig

from conftest import (
    make_config,
    random_policy,
    reference_enumerate_states,
    reference_index_to_state,
    reference_is_outage,
)
from test_markov import PRESET_NAMES, reference_transition_prob

ALL_KINDS = list(PenaltyKind)


def reference_weight_grid(kind, cfg):
    """Successor weight w[a1', a2'] of each penalty on a 1-based grid whose
    row and column 0 are unused."""
    ages = np.arange(cfg.a_max + 1)
    g1, g2 = np.meshgrid(ages, ages, indexing="ij")
    if kind is PenaltyKind.BINARY_OUTAGE:
        return ((g1 > cfg.a_out) | (g2 > cfg.a_out)).astype(float)
    if kind is PenaltyKind.MEAN_SUM_AOI:
        return (g1 + g2).astype(float)
    if kind is PenaltyKind.MEAN_PEAK_AOI:
        return np.maximum(g1, g2).astype(float)
    return np.exp(np.maximum(g1, g2))


def reference_successor_cost(w, c1, c2, e1, e2):
    """Expected successor weight over the four reset/increment branches.

    Works elementwise when e1 and e2 are arrays (one entry per allocation).
    """
    return (
        (1.0 - e1) * (1.0 - e2) * w[1, 1]
        + (1.0 - e1) * e2 * w[1, c2]
        + e1 * (1.0 - e2) * w[c1, 1]
        + e1 * e2 * w[c1, c2]
    )


def reference_penalty(cfg, lam, from_index, pi, kind):
    """Per-state penalty: the state's stationary mass times the expected
    successor weight under allocation lam. from_index is 1-based."""
    t = TransitionTables(cfg)
    n = cfg.link.blocklength_total
    if not 0 <= lam <= n:
        raise ValueError(f"allocation must lie in [0, {n}], got {lam}")
    if not 1 <= from_index <= cfg.n_states:
        raise ValueError(f"from_index must lie in [1, {cfg.n_states}], got {from_index}")
    s = reference_index_to_state(from_index, cfg.a_max)
    e1 = t.eps_by_bit[s.x1][lam]
    e2 = t.eps_by_bit[s.x2][n - lam]
    w = reference_weight_grid(kind, cfg)
    c1, c2 = min(s.a1 + 1, cfg.a_max), min(s.a2 + 1, cfg.a_max)
    return float(pi[from_index - 1] * reference_successor_cost(w, c1, c2, e1, e2))


def reference_improve_policy(cfg, pi, kind, *, tables):
    """The sweep of the paper's recursion, as a per-state loop: each state's
    pi-weighted successor cost over every allocation, then its argmin."""
    w = reference_weight_grid(kind, cfg)
    e_dev2 = (tables.eps_by_bit[0][::-1], tables.eps_by_bit[1][::-1])  # allocation N - lam
    new = np.empty(cfg.n_states, dtype=np.int64)
    for i, s in enumerate(reference_enumerate_states(cfg.a_max)):
        c1, c2 = min(s.a1 + 1, cfg.a_max), min(s.a2 + 1, cfg.a_max)
        cost = pi[i] * reference_successor_cost(w, c1, c2, tables.eps_by_bit[s.x1], e_dev2[s.x2])
        new[i] = np.argmin(cost)
    return new


def penalty_oracle(cfg, lam, from_index, pi, kind):
    """Literal double-sum evaluation over every successor state."""
    states = reference_enumerate_states(cfg.a_max)
    frm = states[from_index - 1]
    total = 0.0
    for to in states:
        if kind is PenaltyKind.BINARY_OUTAGE:
            w = 1.0 if reference_is_outage(to, cfg.a_out) else 0.0
        elif kind is PenaltyKind.MEAN_SUM_AOI:
            w = to.a1 + to.a2
        elif kind is PenaltyKind.MEAN_PEAK_AOI:
            w = max(to.a1, to.a2)
        else:
            w = np.exp(max(to.a1, to.a2))
        total += w * reference_transition_prob(cfg, lam, frm, to)
    return pi[from_index - 1] * total


def full_chain_law(nu, tables):
    """Stationary law of the full chain from that of the age chain: the
    fresh channel bits are independent of the ages."""
    return np.kron(nu, tables.bit_weights)


def reference_optimize(cfg, kind, seed, max_iter=200):
    """The recursive optimizer as the paper states it: from a seeded random
    policy, alternate a stationary solve and a pi-weighted sweep until the
    policy repeats an earlier iterate. Returns the iterate with the lowest
    analytic outage rate and that rate."""
    t = TransitionTables(cfg)
    lam = np.random.default_rng(seed).integers(0, cfg.link.blocklength_total + 1, size=cfg.n_states)
    pi = steady_state(build_transition_matrix(cfg, lam))
    seen = {lam.tobytes()}
    best_policy, best_p_out = lam, math.inf
    for _ in range(max_iter):
        lam = reference_improve_policy(cfg, full_chain_law(pi, t), kind, tables=t)
        pi = steady_state(build_transition_matrix(cfg, lam))
        p_out = outage_probability(pi, cfg)
        if p_out < best_p_out:
            best_policy, best_p_out = lam, p_out
        if lam.tobytes() in seen:
            break
        seen.add(lam.tobytes())
    return best_policy, best_p_out


@pytest.fixture(scope="module")
def small_pi(small_cfg):
    pol = random_policy(small_cfg, np.random.default_rng(41))
    return full_chain_law(steady_state(build_transition_matrix(small_cfg, pol)), transition_tables(small_cfg))


class TestBenchmarkPolicies:
    def test_naive_even_split(self, cfg_b):
        pol = naive_policy(cfg_b)
        assert pol.shape == (100,)
        assert np.all(pol == 500)

    def test_naive_floors_odd_budget(self):
        cfg = make_config(n=3, d=1)
        assert np.all(naive_policy(cfg) == 1)

    def test_min_error_depends_only_on_bits(self, cfg_b):
        pol = min_error_policy(cfg_b)
        states = reference_enumerate_states(cfg_b.a_max)
        by_bits = {}
        for lam, s in zip(pol, states):
            by_bits.setdefault((s.x1, s.x2), set()).add(int(lam))
        assert all(len(v) == 1 for v in by_bits.values())

    def test_min_error_symmetric_bits_split_evenly(self, cfg_b):
        pol = min_error_policy(cfg_b)
        states = reference_enumerate_states(cfg_b.a_max)
        lam = {(s.x1, s.x2): int(l) for s, l in zip(states, pol)}
        assert lam[0, 0] == 500
        assert lam[1, 1] == 500

    def test_min_error_favors_weak_channel(self, cfg_b):
        pol = min_error_policy(cfg_b)
        states = reference_enumerate_states(cfg_b.a_max)
        lam = {(s.x1, s.x2): int(l) for s, l in zip(states, pol)}
        assert lam[1, 0] < 500  # own channel good: cede symbols to the other device
        assert lam[0, 1] > 500
        assert lam[1, 0] + lam[0, 1] == 1000  # mirror symmetry of the summed objective

    def test_min_error_truly_minimizes(self, cfg_b):
        pol = min_error_policy(cfg_b)
        eps_by_bit = transition_tables(cfg_b).eps_by_bit
        n = cfg_b.link.blocklength_total
        states = reference_enumerate_states(cfg_b.a_max)
        lam = {(s.x1, s.x2): int(l) for s, l in zip(states, pol)}
        sweep = np.arange(n + 1)
        for (b1, b2), l in lam.items():
            total = eps_by_bit[b1][sweep] + eps_by_bit[b2][n - sweep]
            assert total[l] == total.min()
            assert l == int(np.argmin(total))


class TestPenalty:
    def test_binary_zero_when_outage_set_empty(self):
        with pytest.warns(UserWarning):
            cfg = make_config(a_max=2, a_out=2)
        pi = np.full(cfg.n_states, 1 / cfg.n_states)
        for lam in (0, 11, 40):
            assert reference_penalty(cfg, lam, 3, pi, PenaltyKind.BINARY_OUTAGE) == 0.0

    def test_sum_weight_is_constant_on_degenerate_chain(self):
        with pytest.warns(UserWarning):
            cfg = make_config(a_max=1, a_out=1)
        pi = np.array([0.4, 0.3, 0.2, 0.1])
        for i in range(1, 5):
            for lam in (0, 17, 40):
                assert reference_penalty(cfg, lam, i, pi, PenaltyKind.MEAN_SUM_AOI) == pytest.approx(
                    2 * pi[i - 1], rel=1e-13
                )

    def test_weight_dominance(self, small_cfg, small_pi):
        for i in (1, 6, 16):
            for lam in (0, 13, 40):
                exp_pen = reference_penalty(small_cfg, lam, i, small_pi, PenaltyKind.EXP_MEAN_PEAK_AOI)
                peak = reference_penalty(small_cfg, lam, i, small_pi, PenaltyKind.MEAN_PEAK_AOI)
                summed = reference_penalty(small_cfg, lam, i, small_pi, PenaltyKind.MEAN_SUM_AOI)
                assert exp_pen >= peak >= 0.5 * summed

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_double_sum_oracle(self, small_cfg, small_pi, kind):
        for i in (1, 4, 9, 16):
            for lam in (0, 3, 21, 40):
                assert reference_penalty(small_cfg, lam, i, small_pi, kind) == pytest.approx(
                    penalty_oracle(small_cfg, lam, i, small_pi, kind), rel=1e-12, abs=1e-300
                )

    def test_rejects_bad_args(self, small_cfg, small_pi):
        with pytest.raises(ValueError):
            reference_penalty(small_cfg, -1, 1, small_pi, PenaltyKind.BINARY_OUTAGE)
        with pytest.raises(ValueError):
            reference_penalty(small_cfg, 0, 0, small_pi, PenaltyKind.BINARY_OUTAGE)
        with pytest.raises(ValueError):
            reference_penalty(small_cfg, 0, 17, small_pi, PenaltyKind.BINARY_OUTAGE)


class TestAgeWeights:
    @pytest.mark.parametrize("a_max, a_out", [(1, 1), (2, 1), (5, 3)])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_weights_are_the_grid_over_age_positions(self, a_max, a_out, kind):
        with pytest.warns(UserWarning) if a_max == a_out else contextlib.nullcontext():
            cfg = make_config(a_max=a_max, a_out=a_out)
        weights = _age_weight_grid(kind, TransitionTables(cfg))
        assert weights.shape == (a_max * a_max,)
        assert np.array_equal(weights, reference_weight_grid(kind, cfg)[1:, 1:].ravel())

    def test_binary_weight_is_the_outage_set(self, cfg_b):
        tables = transition_tables(cfg_b)
        weights = _age_weight_grid(PenaltyKind.BINARY_OUTAGE, tables)
        assert np.array_equal(weights, tables.outage.astype(float))


class TestImprovePolicy:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_sweep_matches_exhaustive_minimum(self, small_cfg, small_pi, kind):
        # the pi-weighted penalty has the argmin of the unweighted sweep
        improved = improve_policy(small_cfg, kind)
        n = small_cfg.link.blocklength_total
        for i in range(small_cfg.n_states):
            values = np.array(
                [reference_penalty(small_cfg, lam, i + 1, small_pi, kind) for lam in range(n + 1)]
            )
            chosen = reference_penalty(small_cfg, int(improved[i]), i + 1, small_pi, kind)
            assert chosen == values.min()
            assert int(improved[i]) == int(np.argmin(values))  # smallest-allocation tie-break

    def test_bounds(self, small_cfg):
        for kind in ALL_KINDS:
            improved = improve_policy(small_cfg, kind)
            assert improved.min() >= 0
            assert improved.max() <= small_cfg.link.blocklength_total

    def test_symmetric_states_lean_small(self):
        profile = ChannelProfile(0.5, 0.5, -12.2, -15.2)
        link = LinkParams(40, 2)
        cfg = SystemConfig(profile=profile, link=link, a_max=2, a_out=1)
        states = reference_enumerate_states(cfg.a_max)
        for kind in ALL_KINDS:
            improved = improve_policy(cfg, kind)
            for s, lam in zip(states, improved):
                if s.a1 == s.a2 and s.x1 == s.x2:
                    assert lam <= cfg.link.blocklength_total // 2

    def test_shields_endangered_device(self, cfg_b):
        # device 1 sits at the threshold, device 2 is fresh: the binary
        # penalty is minimized by sending as much as possible to device 1
        improved = improve_policy(cfg_b, PenaltyKind.BINARY_OUTAGE)
        states = reference_enumerate_states(cfg_b.a_max)
        for s, lam in zip(states, improved):
            if s.a1 == cfg_b.a_out and s.a2 == 1:
                assert lam > 500

    def test_scale_invariance(self, small_cfg, small_pi):
        # a positive factor on the paper's pi-weighted penalty never moves
        # its argmin, which is why the sweep carries no weights
        assert small_pi.min() > 0.0
        tables = TransitionTables(small_cfg)
        for kind in ALL_KINDS:
            improved = improve_policy(small_cfg, kind)
            for scale in (1.0, 3.0, 1e-9):
                weighted = reference_improve_policy(small_cfg, scale * small_pi, kind, tables=tables)
                assert np.array_equal(improved, weighted)


class TestSweepMatchesReferenceLoop:
    """The unweighted sweep picks the allocations of the pi-weighted loop
    for any positive pi."""

    @pytest.mark.parametrize("preset", PRESET_NAMES)
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_presets_bit_exact(self, preset, kind):
        cfg = load_scenario(preset).system
        tables = TransitionTables(cfg)
        nu = steady_state(build_transition_matrix(cfg, naive_policy(cfg)))
        solved = full_chain_law(nu, tables)
        random_pi = 1.0 - np.random.default_rng(29).random(cfg.n_states)  # in (0, 1]
        improved = improve_policy(cfg, kind)
        for pi in (np.ones(cfg.n_states), random_pi, solved):
            assert pi.min() > 0.0
            assert np.array_equal(improved, reference_improve_policy(cfg, pi, kind, tables=tables))

    @pytest.mark.parametrize("a_max, a_out", [(1, 1), (2, 1), (3, 2)])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_small_configs_bit_exact(self, a_max, a_out, kind):
        with pytest.warns(UserWarning) if a_max == a_out else contextlib.nullcontext():
            cfg = make_config(a_max=a_max, a_out=a_out)
        tables = TransitionTables(cfg)
        pi = 1.0 - np.random.default_rng(a_max).random(cfg.n_states)  # in (0, 1]
        assert np.array_equal(
            improve_policy(cfg, kind),
            reference_improve_policy(cfg, pi, kind, tables=tables),
        )


class TestOptimize:
    def test_deterministic(self, small_cfg):
        r1 = optimize(small_cfg, PenaltyKind.EXP_MEAN_PEAK_AOI, seed=7, max_iter=50)
        r2 = optimize(small_cfg, PenaltyKind.EXP_MEAN_PEAK_AOI, seed=7, max_iter=50)
        assert np.array_equal(r1.final_policy, r2.final_policy)
        assert r1.convergence_trace == r2.convergence_trace

    def test_degenerate_chain_converges_fast(self):
        with pytest.warns(UserWarning):
            cfg = make_config(a_max=1, a_out=1)
        report = optimize(cfg, PenaltyKind.MEAN_SUM_AOI, seed=3)
        assert report.iterations <= 2

    def test_report_invariants(self, small_cfg):
        report = optimize(small_cfg, PenaltyKind.MEAN_PEAK_AOI, seed=1, max_iter=60)
        assert report.iterations == len(report.convergence_trace)
        assert report.iterations >= 1
        traced = [row[2] for row in report.convergence_trace]
        assert report.best_p_out == min(traced)
        assert report.final_policy.min() >= 0
        assert report.final_policy.max() <= small_cfg.link.blocklength_total

    def test_rejects_bad_max_iter(self, small_cfg):
        with pytest.raises(ValueError):
            optimize(small_cfg, PenaltyKind.BINARY_OUTAGE, seed=0, max_iter=0)


class TestOptimizeMatchesRecursion:
    @pytest.mark.parametrize("preset", ["scenario_a", "scenario_b", "scenario_c"])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_reference_loop(self, preset, kind):
        scenario = load_scenario(preset)
        cfg = scenario.system
        for seed in (0, 7, 2**32 - 1):
            policy, p_out = reference_optimize(cfg, kind, seed, scenario.optimizer.max_iter)
            report = optimize(cfg, kind, seed, scenario.optimizer.max_iter)
            assert np.array_equal(report.final_policy, policy)
            assert report.best_p_out == p_out


class TestOptimizeOffPreset:
    @pytest.mark.parametrize(
        "kind",
        [PenaltyKind.MEAN_SUM_AOI, PenaltyKind.MEAN_PEAK_AOI, PenaltyKind.EXP_MEAN_PEAK_AOI],
    )
    def test_no_stranded_device_off_preset(self, kind):
        # Here the recursion sends zero-mass states to allocation 0, strands a
        # device and fails its stationary solve from every seed; the
        # unweighted sweep keeps the chain ergodic.
        profile = ChannelProfile(0.6, 0.4, -5.0, -8.0)
        cfg = SystemConfig(profile, LinkParams(1000, 2), a_max=3, a_out=2)
        report = optimize(cfg, kind, seed=0)
        pi = steady_state(build_transition_matrix(cfg, report.final_policy))
        assert report.best_p_out == outage_probability(pi, cfg)
