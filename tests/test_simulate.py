"""Simulator determinism, dynamics legality, and burst measurement."""

import importlib
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aoi_outage.burstiness import burst_stats
from aoi_outage.fbl import block_error_rate
from aoi_outage.markov import TransitionTables, validate_policies
from aoi_outage.optimizer import PenaltyKind, improve_policy, min_error_policy, naive_policy
from aoi_outage.simulate import (
    CHECKPOINTS,
    DRAW_CHUNK,
    burst_convergence,
    derive_seed,
    measure_bursts,
    median_errors,
    normalized_error,
    run_repetitions,
    run_repetitions_many,
    simulate,
    simulate_many,
)
from aoi_outage.states import decode_states

from conftest import (
    ReferenceState,
    extreme_policies,
    random_policy,
    reference_gamma_for_bit,
    reference_state_to_index,
    traced_peak,
)

# the package re-exports the function simulate under the module's name
simulate_module = importlib.import_module("aoi_outage.simulate")


def reference_simulate(cfg, policy, periods, seed):
    """Slow re-implementation used as an oracle: scalar error-rate calls,
    explicit state bookkeeping, and legality checks on every step."""
    rng = np.random.default_rng(seed)
    u = rng.random((periods, 4))
    n = cfg.link.blocklength_total
    d = cfg.link.payload_bits
    a1, a2, x1, x2 = 1, 1, 0, 0  # every run starts at position 0
    outage = []
    for k in range(periods):
        idx = 2 * (2 * ((a1 - 1) * cfg.a_max + a2 - 1) + x1) + x2  # 0-based
        lam = int(policy[idx])
        e1 = block_error_rate(lam, d, reference_gamma_for_bit(cfg.profile, x1))
        e2 = block_error_rate(n - lam, d, reference_gamma_for_bit(cfg.profile, x2))
        a1 = min(a1 + 1, cfg.a_max) if u[k, 0] < e1 else 1
        a2 = min(a2 + 1, cfg.a_max) if u[k, 1] < e2 else 1
        x1 = 1 if u[k, 2] < cfg.profile.alpha_1 else 0
        x2 = 1 if u[k, 3] < cfg.profile.alpha_2 else 0
        assert 1 <= a1 <= cfg.a_max and 1 <= a2 <= cfg.a_max
        outage.append(a1 > cfg.a_out or a2 > cfg.a_out)
    return np.array(outage), ReferenceState(a1, a2, x1, x2)


def groupby_bursts(seq):
    """Independent run-length oracle for measure_bursts."""
    runs = [(key, len(list(group))) for key, group in itertools.groupby(seq)]
    interior = runs[1:-1]
    bursts = [n for key, n in interior if key]
    iois = [n for key, n in interior if not key]
    return bursts, iois


class TestSimulate:
    def test_bit_exact_determinism(self, small_cfg):
        pol = random_policy(small_cfg, np.random.default_rng(1))
        a = simulate(small_cfg, pol, 500, seed=42)
        b = simulate(small_cfg, pol, 500, seed=42)
        assert np.array_equal(a.outage_sequence, b.outage_sequence)
        assert a.final_position == b.final_position
        assert a.burst_durations == b.burst_durations
        assert a.ioi_durations == b.ioi_durations
        assert a.outage_rate == b.outage_rate

    def test_matches_reference_implementation(self, small_cfg):
        pol = random_policy(small_cfg, np.random.default_rng(8))
        result = simulate(small_cfg, pol, 400, seed=9)
        ref_seq, ref_final = reference_simulate(small_cfg, pol, 400, seed=9)
        assert np.array_equal(result.outage_sequence, ref_seq)
        assert result.final_position == reference_state_to_index(ref_final, small_cfg.a_max) - 1

    def test_starving_device_forces_outage(self, cfg_b):
        # allocation 0 everywhere: device 1 never succeeds, so its age walks
        # up to the cap and the system is in outage from period a_out onward
        pol = np.zeros(cfg_b.n_states, dtype=int)
        result = simulate(cfg_b, pol, 50, seed=4)
        assert result.outage_sequence[cfg_b.a_out :].all()
        assert decode_states(cfg_b.a_max)[0][result.final_position] == cfg_b.a_max

    def test_outage_accounting(self, small_cfg):
        pol = random_policy(small_cfg, np.random.default_rng(2))
        result = simulate(small_cfg, pol, 300, seed=5)
        assert result.outage_count == int(result.outage_sequence.sum())
        assert result.outage_rate == result.outage_count / 300
        assert all(b >= 1 for b in result.burst_durations)
        assert all(i >= 1 for i in result.ioi_durations)
        total = sum(result.burst_durations) + sum(result.ioi_durations)
        assert total <= result.periods

    def test_rejects_bad_periods(self, small_cfg):
        with pytest.raises(ValueError):
            simulate(small_cfg, naive_policy(small_cfg), 0, seed=1)


class TestPackedBranch:
    @pytest.mark.parametrize("n", [1, 144, 600 * 144])
    @pytest.mark.parametrize("fail1, fail2", itertools.product([False, True], repeat=2))
    def test_flag_pair_maps_to_branch(self, fail1, fail2, n, cfg_b):
        # the kernel reads its (..., seeds, 2) bool grid `fail` through its
        # uint16 view, and the branch starts n entries further per branch
        fail = np.array([[False, False], [fail1, fail2], [True, True]])
        code = fail.view(np.uint16).reshape(-1)
        assert simulate_module._branch_table(TransitionTables(cfg_b).bits, n)[code].tolist() == [
            0, n * (2 * fail1 + fail2), 3 * n]

    def test_extreme_policies_hit_certain_failure(self, mid_cfg):
        starved, saturated = extreme_policies(mid_cfg)
        t = TransitionTables(mid_cfg)
        assert (t.error_rates(starved)[0] == 1.0).all()
        assert (t.error_rates(saturated)[1] == 1.0).all()


class TestSimulateMany:
    def test_draw_chunk_packs_into_whole_bytes(self):
        # the kernel packs each chunk's outage flags on their own, so every
        # chunk but the last must fill whole bytes
        assert DRAW_CHUNK % 8 == 0

    def test_memory_grows_one_bit_per_row_period(self, cfg_b):
        # 50 rows x 40 000 periods: a bool per row-period alone would be
        # 2 MB; the packed record is 250 kB
        reps, periods = 50, 40_000
        policy = naive_policy(cfg_b)
        run_repetitions_many(cfg_b, [policy], 1, 10, 0)  # tables and imports outside the trace
        assert traced_peak(lambda: run_repetitions_many(cfg_b, [policy], reps, periods, 0)) < reps * periods / 2

    def test_table2_cell_working_set(self, cfg_b):
        # one preset of reproduce-table2: six policies x 100 seeds x 2 500
        # periods. Per seed, each chunk refills one block of draws, one of
        # failure pairs and one of bit codes; per row, one block of visited
        # states and the packed record: ~1.21 MB traced, where per-row blocks
        # of uniforms and bit codes peaked at ~1.33 MB
        policies = [improve_policy(cfg_b, PenaltyKind(k)) for k in ("binary", "sum-aoi", "peak-aoi", "exp-peak-aoi")]
        policies += [naive_policy(cfg_b), min_error_policy(cfg_b)]
        run_repetitions_many(cfg_b, policies, 1, 10, 0)
        assert traced_peak(lambda: run_repetitions_many(cfg_b, policies, 100, 2500, 0)) < 1_250_000

    def test_distinct_policies_working_set(self, cfg_b):
        # burst-convergence's batch: 100 policies x 10 000 periods. The tables
        # are indexed by state, one error-rate pair each: ~1.37 MB traced,
        # where four branch slots per state peaked at ~1.91 MB
        rng = np.random.default_rng(0)
        policies = [random_policy(cfg_b, rng) for _ in range(100)]
        simulate_many(cfg_b, policies[:1], 10, [0])
        assert traced_peak(lambda: simulate_many(cfg_b, policies, 10_000, list(range(100)))) < 1_650_000

    @pytest.mark.parametrize(
        "periods", [1, 7, 8, 9, 15, 16, 17, 47, 49, DRAW_CHUNK - 1, DRAW_CHUNK, DRAW_CHUNK + 1, 2 * DRAW_CHUNK + 7]
    )
    def test_rows_match_reference_implementation(self, mid_cfg, periods):
        rng = np.random.default_rng(21)
        policies = [random_policy(mid_cfg, rng) for _ in range(3)] + [naive_policy(mid_cfg)]
        # error rates of 1.0 and the smallest rates, each device in turn
        policies += extreme_policies(mid_cfg)
        seeds = [derive_seed(5, r) for r in range(len(policies))]
        results = simulate_many(mid_cfg, policies, periods, seeds)
        assert len(results) == len(policies)
        for pol, seed, result in zip(policies, seeds, results):
            ref_seq, ref_final = reference_simulate(mid_cfg, pol, periods, seed)
            assert np.array_equal(result.outage_sequence, ref_seq)
            assert result.final_position == reference_state_to_index(ref_final, mid_cfg.a_max) - 1
            assert result.seed == seed and result.periods == periods
            assert result.outage_bits.dtype == np.uint8
            assert result.outage_bits.nbytes == -(-periods // 8)

    @pytest.mark.parametrize(
        "periods", [1, 7, 8, 9, 15, 16, 17, 47, 49, DRAW_CHUNK - 1, DRAW_CHUNK, DRAW_CHUNK + 1, 2 * DRAW_CHUNK + 7]
    )
    def test_repetition_grid_matches_reference(self, mid_cfg, periods):
        # every policy of the grid reads every repetition's seed
        policies = [naive_policy(mid_cfg), random_policy(mid_cfg, np.random.default_rng(44))]
        policies.append(extreme_policies(mid_cfg)[0])
        master, reps = 13, 4
        summaries = run_repetitions_many(mid_cfg, policies, reps, periods, master)
        assert len(summaries) == len(policies)
        for pol, summary in zip(policies, summaries):
            assert summary.reps == reps
            for r, result in enumerate(summary.results):
                seed = derive_seed(master, r)
                ref_seq, ref_final = reference_simulate(mid_cfg, pol, periods, seed)
                assert np.array_equal(result.outage_sequence, ref_seq)
                assert result.final_position == reference_state_to_index(ref_final, mid_cfg.a_max) - 1
                assert result.seed == seed and result.periods == periods

    @pytest.mark.parametrize("layout", ["policy-major", "shuffled", "one-repeat"])
    @pytest.mark.parametrize(
        "periods", [1, 7, 8, 9, 15, 16, 17, 47, 49, DRAW_CHUNK - 1, DRAW_CHUNK, DRAW_CHUNK + 1, 2 * DRAW_CHUNK + 7]
    )
    def test_shared_policies_and_seeds_match_reference(self, mid_cfg, periods, layout):
        # table2's layout: every policy repeats over the same seeds, policy-major;
        # the last row repeats a (policy, seed) pair outright
        rng = np.random.default_rng(33)
        distinct = [random_policy(mid_cfg, rng) for _ in range(2)] + [naive_policy(mid_cfg)]
        distinct += extreme_policies(mid_cfg)
        seeds = [derive_seed(8, r) for r in range(4)]
        pairs = [(pol, seed) for pol in distinct for seed in seeds] + [(distinct[1], seeds[2])]
        if layout == "shuffled":
            pairs = [pairs[i] for i in rng.permutation(len(pairs))]
        elif layout == "one-repeat":
            # a single row shares its seed; every other row has its own
            pairs = [(distinct[r % len(distinct)], seed) for r, seed in enumerate(seeds)]
            pairs += [(distinct[0], seeds[1])]
        # fresh copies, so rows share policies by value and not by identity
        policies = [pol.copy() for pol, _ in pairs]
        results = simulate_many(mid_cfg, policies, periods, [seed for _, seed in pairs])
        for (pol, seed), result in zip(pairs, results):
            ref_seq, ref_final = reference_simulate(mid_cfg, pol, periods, seed)
            assert np.array_equal(result.outage_sequence, ref_seq)
            assert result.final_position == reference_state_to_index(ref_final, mid_cfg.a_max) - 1
            assert result.seed == seed and result.periods == periods
            assert result.outage_bits.dtype == np.uint8
            assert result.outage_bits.nbytes == -(-periods // 8)

    @staticmethod
    def count_validations(monkeypatch) -> list:
        calls = []

        def counting(policies, cfg):
            calls.append(1)
            return validate_policies(policies, cfg)

        monkeypatch.setattr(simulate_module, "validate_policies", counting)
        return calls

    def test_validates_the_batch_once(self, small_cfg, monkeypatch):
        calls = self.count_validations(monkeypatch)
        pol = naive_policy(small_cfg)
        simulate_many(small_cfg, [pol] * 5, 20, list(range(5)))
        assert len(calls) == 1

    def test_repetitions_table_each_policy_and_draw_each_seed_once(self, small_cfg, monkeypatch):
        calls = self.count_validations(monkeypatch)
        generators = []
        default_rng = np.random.default_rng

        def counting_rng(seed):
            generators.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", counting_rng)
        pols = [naive_policy(small_cfg), random_policy(small_cfg, default_rng(4))]
        run_repetitions_many(small_cfg, pols, 7, 20, 3)
        assert len(calls) == 1
        assert generators == [derive_seed(3, r) for r in range(7)]

    @pytest.mark.parametrize("run", [
        lambda cfg, pols: simulate_many(cfg, pols, 20, list(range(len(pols)))),
        lambda cfg, pols: run_repetitions_many(cfg, pols, 3, 20, 0),
    ], ids=["simulate_many", "run_repetitions_many"])
    def test_invalid_last_policy_is_refused_before_any_step(self, small_cfg, monkeypatch, run):
        def stepped(*args):
            raise AssertionError("the batch was stepped before every policy was validated")

        monkeypatch.setattr(simulate_module, "_lockstep", stepped)
        pols = [naive_policy(small_cfg), random_policy(small_cfg, np.random.default_rng(1)),
                np.full(small_cfg.n_states, 2.5)]
        with pytest.raises(ValueError, match="policy entries must be integers"):
            run(small_cfg, pols)

    def test_rejects_empty_input(self, small_cfg):
        with pytest.raises(ValueError):
            simulate_many(small_cfg, [], 10, [])

    def test_rejects_mismatched_lengths(self, small_cfg):
        pol = naive_policy(small_cfg)
        with pytest.raises(ValueError):
            simulate_many(small_cfg, [pol, pol], 10, [1])

    def test_rejects_bad_periods(self, small_cfg):
        with pytest.raises(ValueError):
            simulate_many(small_cfg, [naive_policy(small_cfg)], 0, [1])


class TestMeasureBursts:
    def test_worked_example(self):
        bursts, iois = measure_bursts([False, True, True, False, False, False, True])
        assert bursts == [2]
        assert iois == [3]

    def test_all_false(self):
        assert measure_bursts([False] * 10) == ([], [])

    def test_alternating(self):
        bursts, iois = measure_bursts([False, True, False, True, False])
        assert bursts == [1, 1]
        assert iois == [1]

    def test_empty(self):
        assert measure_bursts([]) == ([], [])

    # the simulator passes numpy bool arrays, callers may pass plain lists
    @pytest.mark.parametrize("container", [list, np.array], ids=["list", "ndarray"])
    @given(st.lists(st.booleans(), max_size=120))
    def test_matches_groupby_oracle(self, container, seq):
        bursts, iois = measure_bursts(container(seq))
        assert (bursts, iois) == groupby_bursts(seq)
        assert all(type(n) is int for n in bursts + iois)


def numpy_mean(lengths):
    """The spelling the simulator's means must match bit for bit."""
    return float(np.mean(lengths)) if lengths else float("nan")


def fixed_lockstep(outage):
    """A stand-in for the lockstep kernel that returns the given outage rows,
    so the post-processing sees arbitrary sequences."""
    def lockstep(t, policies, group, periods, seeds):
        assert outage.shape == (group.size, periods)
        return np.packbits(outage, axis=1), np.zeros(group.size, dtype=np.int64)
    return lockstep


@st.composite
def rep_groups(draw):
    """(n_policies, reps, outage rows): n_policies x reps equal-length
    boolean sequences, policy-major as run_repetitions_many lays them out."""
    n_policies, reps = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    periods = draw(st.integers(1, 150))
    row = st.lists(st.booleans(), min_size=periods, max_size=periods)
    rows = draw(st.lists(row, min_size=n_policies * reps, max_size=n_policies * reps))
    return n_policies, reps, np.array(rows, dtype=bool)


class TestMeans:
    @settings(max_examples=60, deadline=None)
    @given(rep_groups())
    def test_result_and_pooled_means_match_numpy(self, small_cfg, groups):
        n_policies, reps, outage = groups
        periods = outage.shape[1]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulate_module, "_lockstep", fixed_lockstep(outage))
            summaries = run_repetitions_many(
                small_cfg, [naive_policy(small_cfg)] * n_policies, reps, periods, master_seed=0
            )
        for i, summary in enumerate(summaries):
            pooled_bursts, pooled_iois = [], []
            for result, seq in zip(summary.results, outage[i * reps : (i + 1) * reps]):
                bursts, iois = groupby_bursts(seq.tolist())
                pooled_bursts += bursts
                pooled_iois += iois
                assert np.array_equal(result.outage_sequence, seq)
                assert type(result.outage_count) is int and result.outage_count == int(seq.sum())
                assert repr(result.outage_rate) == repr(float(seq.mean()))
                assert repr(result.mean_burst) == repr(numpy_mean(bursts))
                assert repr(result.mean_ioi) == repr(numpy_mean(iois))
            assert repr(summary.mean_burst) == repr(numpy_mean(pooled_bursts))
            assert repr(summary.mean_ioi) == repr(numpy_mean(pooled_iois))

    # sticky sequences: a run ends with probability `switch`, so runs reach
    # thousands of periods and their sums stay far from exact-integer limits
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(1e-3, 1.0))
    def test_convergence_measures_match_numpy(self, cfg_b, seed, switch):
        rng = np.random.default_rng(seed)
        flips = rng.random((2, max(CHECKPOINTS))) < switch
        outage = np.cumsum(flips, axis=1) % 2 == 1
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulate_module, "_lockstep", fixed_lockstep(outage))
            rows = burst_convergence(cfg_b, 2, 11)
        for row in rows:
            prefix = outage[row["policy_id"], : row["checkpoint"]]
            bursts, iois = measure_bursts(prefix)
            assert repr(row["measured_p_out"]) == repr(float(prefix.mean()))
            assert repr(row["measured_mean_burst"]) == repr(numpy_mean(bursts))
            assert repr(row["measured_mean_ioi"]) == repr(numpy_mean(iois))


class TestBurstConvergence:
    def test_rows_match_single_row_runs(self, cfg_b):
        rows = burst_convergence(cfg_b, 2, 11)
        assert [(r["policy_id"], r["checkpoint"]) for r in rows] == [
            (pid, cp) for pid in range(2) for cp in CHECKPOINTS
        ]
        for pid in range(2):
            rng = np.random.default_rng(derive_seed(11, pid, 0))
            pol = rng.integers(0, cfg_b.link.blocklength_total + 1, size=cfg_b.n_states)
            stats = burst_stats(cfg_b, pol)
            seed = derive_seed(11, pid, 1)
            seq = simulate(cfg_b, pol, max(CHECKPOINTS), seed).outage_sequence
            for row, cp in zip(rows[pid * len(CHECKPOINTS) :], CHECKPOINTS):
                bursts, iois = groupby_bursts(seq[:cp].tolist())
                measured = [seq[:cp].mean(), np.mean(bursts) if bursts else np.nan,
                            np.mean(iois) if iois else np.nan]
                analytic = [stats.p_out, stats.mean_outage_duration, stats.mean_ioi]
                assert row["sim_seed"] == seed
                for q, m, a in zip(("p_out", "mean_burst", "mean_ioi"), measured, analytic):
                    assert np.array_equal(row[f"measured_{q}"], m, equal_nan=True)
                    assert row[f"analytic_{q}"] == a
                    assert np.array_equal(row[f"err_{q}"], abs(m - a) / a, equal_nan=True)

    def test_median_errors_per_checkpoint(self):
        rows = [
            {"checkpoint": cp, "err_p_out": v, "err_mean_burst": 2 * v,
             "err_mean_ioi": float("nan") if v == 1 else v}
            for cp in CHECKPOINTS for v in (1.0, 2.0, 4.0 * cp)
        ]
        medians = median_errors(rows)
        assert medians.tolist() == [[2.0, 4.0, 2.0 * cp + 1.0] for cp in CHECKPOINTS]

    def test_median_is_nanmedian_bit_for_bit(self, cfg_b):
        # np.nanmedian imports numpy.ma, so median_errors sorts instead
        rng = np.random.default_rng(41)
        columns = [
            rng.random(7), rng.random(8), rng.random(2), rng.random(1),
            np.where(rng.random(9) < 0.3, np.nan, rng.random(9)),
            np.where(rng.random(10) < 0.3, np.nan, rng.random(10)),
            np.array([np.nan, 0.1 + 0.2, 0.3]), np.full(4, np.nan),
            np.array([5e-324, np.nan, 5e-324]),  # halving each term first would give 0
        ]
        row_sets = [burst_convergence(cfg_b, 100, seed) for seed in range(6)]
        row_sets += [[{"checkpoint": cp, "err_p_out": v, "err_mean_burst": -v, "err_mean_ioi": 1.0}
                      for cp in CHECKPOINTS for v in column.tolist()] for column in columns]
        keys = ("err_p_out", "err_mean_burst", "err_mean_ioi")
        for rows in row_sets:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN slices
                want = np.array([
                    np.nanmedian(np.array([[r[k] for k in keys] for r in rows if r["checkpoint"] == cp]), axis=0)
                    for cp in CHECKPOINTS
                ])
            assert median_errors(rows).tobytes() == want.tobytes()

    def test_first_undefined_policy_is_named(self, cfg_b, monkeypatch):
        # policies 2 and 4 starve device 1, so their outage sets are closed;
        # the batch raises for policy 2 before anything is simulated
        batch = simulate_module.burst_stats_many

        def starving(cfg, policies):
            policies = list(policies)
            policies[2] = policies[4] = np.zeros(cfg.n_states, dtype=int)
            return batch(cfg, policies)

        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated an undefined batch")

        monkeypatch.setattr(simulate_module, "burst_stats_many", starving)
        monkeypatch.setattr(simulate_module, "simulate_many", no_simulation)
        with pytest.raises(RuntimeError, match=r"^policy 2 has no reachable outage"):
            burst_convergence(cfg_b, 6, 11)

    def test_each_checkpoint_measures_its_prefix_once(self, cfg_b, monkeypatch):
        # the simulated runs are not measured; each checkpoint measures its
        # prefix, one call each, in row order
        lengths = []

        def recording(seq):
            lengths.append(len(seq))
            return measure_bursts(seq)

        monkeypatch.setattr(simulate_module, "measure_bursts", recording)
        burst_convergence(cfg_b, 3, 11)
        assert lengths == list(CHECKPOINTS) * 3

    def test_impossible_policy_batch_fails_before_any_draw(self, cfg_b, monkeypatch):
        # 2**60 policies of 25 int64 allocations would take more bytes than an int64
        # counts, which numpy refuses before any allocation
        def no_seed(*key):
            raise AssertionError("a policy was drawn for a batch numpy cannot hold")

        monkeypatch.setattr(simulate_module, "derive_seed", no_seed)
        with pytest.raises(ValueError, match="array is too big"):
            burst_convergence(cfg_b, 2**60, 11)


class TestRepetitions:
    def test_single_repetition_equals_simulate(self, small_cfg):
        pol = naive_policy(small_cfg)
        summary = run_repetitions(small_cfg, pol, 1, 200, master_seed=6)
        single = simulate(small_cfg, pol, 200, seed=derive_seed(6, 0))
        assert summary.outage_rate_mean == single.outage_rate
        assert summary.outage_rate_std == 0.0
        assert summary.burst_durations == single.burst_durations
        assert summary.results[0].seed == single.seed

    def test_aggregation_is_order_free(self, small_cfg):
        pol = random_policy(small_cfg, np.random.default_rng(3))
        summary = run_repetitions(small_cfg, pol, 8, 150, master_seed=13)
        reversed_results = [
            simulate(small_cfg, pol, 150, seed=derive_seed(13, r))
            for r in reversed(range(8))
        ]
        assert sorted(r.outage_rate for r in reversed_results) == sorted(summary.outage_rates)
        pooled = sorted(d for r in reversed_results for d in r.burst_durations)
        assert pooled == sorted(summary.burst_durations)

    @pytest.mark.parametrize("measured, predicted", [
        (0.1, None), (0.1, 0.0), (0.1, -0.2), (float("nan"), 0.2),
    ], ids=["no-prediction", "zero", "negative", "nan-measured"])
    def test_normalized_error_unusable_side_is_nan(self, measured, predicted):
        assert np.isnan(normalized_error(measured, predicted))

    def test_empirical_matches_analytic_within_three_se(self, cfg_b):
        # long-horizon consistency of the simulator and the stationary analysis
        pol = naive_policy(cfg_b)
        stats = burst_stats(cfg_b, pol)
        summary = run_repetitions(cfg_b, pol, 10, 100_000, master_seed=7)
        se = summary.outage_rate_std / np.sqrt(summary.reps)
        assert abs(summary.outage_rate_mean - stats.p_out) < 3 * se

    def test_many_equals_one_policy_at_a_time(self, cfg_b):
        pols = [naive_policy(cfg_b), random_policy(cfg_b, np.random.default_rng(12), low=300)]
        many = run_repetitions_many(cfg_b, pols, 4, 700, master_seed=9)
        for pol, summary in zip(pols, many):
            single = run_repetitions(cfg_b, pol, 4, 700, master_seed=9)
            assert [r.seed for r in summary.results] == [r.seed for r in single.results]
            for a, b in zip(summary.results, single.results):
                assert np.array_equal(a.outage_sequence, b.outage_sequence)
                assert a.final_position == b.final_position
            assert np.array_equal(summary.outage_rates, single.outage_rates)
            assert (summary.outage_rate_mean, summary.outage_rate_std) == (
                single.outage_rate_mean, single.outage_rate_std)
            assert summary.burst_durations == single.burst_durations
            assert summary.ioi_durations == single.ioi_durations

    def test_rejects_bad_reps(self, small_cfg):
        with pytest.raises(ValueError):
            run_repetitions(small_cfg, naive_policy(small_cfg), 0, 10, master_seed=1)

    @pytest.mark.parametrize("n_policies, reps", [(1, 2**63 - 1), (1, 2**62), (2, 2**61)],
                             ids=["1x(2**63-1)", "1x2**62", "2x2**61"])
    def test_impossible_batch_fails_before_any_seed(self, small_cfg, monkeypatch, n_policies, reps):
        # each index array would take 2**65 bytes or more, which numpy refuses before any allocation
        def no_seed(*key):
            raise AssertionError("a seed was derived for a batch numpy cannot hold")

        monkeypatch.setattr(simulate_module, "derive_seed", no_seed)
        with pytest.raises(ValueError, match="array is too big"):
            run_repetitions_many(small_cfg, [naive_policy(small_cfg)] * n_policies, reps, 10, master_seed=1)


class TestSeeds:
    def test_derive_seed_deterministic(self):
        assert derive_seed(123, 4) == derive_seed(123, 4)
        assert derive_seed(123, 4, 1) == derive_seed(123, 4, 1)

    def test_derive_seed_distinct(self):
        seeds = {derive_seed(9, i) for i in range(500)}
        assert len(seeds) == 500

    def test_repetition_seed_is_indexed_derivation(self, small_cfg):
        pol = random_policy(small_cfg, np.random.default_rng(5))
        summary = run_repetitions(small_cfg, pol, 4, 120, master_seed=55)
        assert [r.seed for r in summary.results] == [derive_seed(55, r) for r in range(4)]
        for r, result in enumerate(summary.results):
            single = simulate(small_cfg, pol, 120, seed=derive_seed(55, r))
            assert np.array_equal(result.outage_sequence, single.outage_sequence)
