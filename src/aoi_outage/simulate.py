"""Seeded discrete-time simulation of the two-device uplink.

The simulator drives exactly the same chain as the analytic machinery:
allocations come from the policy at the current state, error rates use the
current state's channel bits, and fresh bits only select the next period's
SNR. Randomness comes from numpy's default PCG64 generator; one uniform
draw per period and quantity, in the fixed column order (device-1 failure,
device-2 failure, device-1 next bit, device-2 next bit), so results are
bit-reproducible given (config, policy, periods, seed). Many (policy, seed)
rows advance in lockstep, one numpy step per period; each row's result is
the same as a one-row run.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .burstiness import burst_stats_many
from .markov import TransitionTables, transition_tables, validate_policy
from .states import SystemConfig


def derive_seed(master_seed: int, *key: int) -> int:
    """Deterministic child seed: the first 64-bit state word of numpy's
    SeedSequence(master_seed, spawn_key=key)."""
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass
class SimResult:
    """One simulated run. Its outage sequence is held packed, one bit per
    period; its statistics are derived from it when read."""

    seed: int
    final_position: int
    periods: int
    outage_count: int
    outage_bits: np.ndarray = field(repr=False)

    @property
    def outage_sequence(self) -> np.ndarray:
        """The per-period outage indicators, unpacked on each read."""
        return np.unpackbits(self.outage_bits, count=self.periods).view(bool)

    @property
    def outage_rate(self) -> float:
        return self.outage_count / self.periods

    @cached_property
    def _runs(self) -> tuple[list[int], list[int]]:
        """The run's split into bursts and intervals, made on first read."""
        return measure_bursts(self.outage_sequence)

    @property
    def burst_durations(self) -> list[int]:
        return self._runs[0]

    @property
    def ioi_durations(self) -> list[int]:
        return self._runs[1]

    @property
    def mean_burst(self) -> float:
        """nan when no complete burst was observed."""
        return _mean(self.burst_durations)

    @property
    def mean_ioi(self) -> float:
        return _mean(self.ioi_durations)


def measure_bursts(outage_sequence):
    """Split an outage indicator sequence into maximal runs.

    Returns (burst_durations, ioi_durations): a burst counts its outage
    periods (burstiness.DURATION_CONVENTION), an interval its periods out
    of outage. Runs touching either end of the sequence are discarded from
    both lists as boundary-truncated.
    """
    seq = np.asarray(outage_sequence, dtype=bool)
    change = np.flatnonzero(seq[1:] != seq[:-1]) + 1
    # the interior runs lie between consecutive change points
    lengths = np.diff(change)
    in_outage = seq[change[:-1]]
    return lengths[in_outage].tolist(), lengths[~in_outage].tolist()


#: Periods of uniforms drawn per generator at a time. The kernel holds, per
#: seed, one chunk of DRAW_CHUNK x 4 drawn doubles, read once into two
#: blocks that all its rows read: DRAW_CHUNK failure pairs and DRAW_CHUNK
#: bit codes. Per row it holds one chunk of DRAW_CHUNK visited states,
#: whatever the horizon; every chunk refills the same blocks and is packed
#: once. A multiple of 8, so every chunk but the last packs into whole bytes.
DRAW_CHUNK = 64

#: Set bits of each byte value.
_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def _branch_table(bits: np.ndarray, n: int) -> np.ndarray:
    """n * (2 * fail1 + fail2) of each (fail1, fail2) flag pair: where the
    pair's branch starts in a branch-major table of n entries per branch.
    Indexed by the pair's two bool bytes read as one uint16, and built from
    that view of the pairs `bits` (row b spells branch b), so the table
    holds for either byte order."""
    branch = np.zeros(258, dtype=np.intp)
    branch[bits.astype(bool).view(np.uint16).ravel()] = n * np.arange(4)
    return branch


def _lockstep(t: TransitionTables, policies: np.ndarray, group: np.ndarray, periods: int,
              seeds) -> tuple[np.ndarray, np.ndarray]:
    """Advance a grid of independent rows of the chain together, one numpy
    step per period. group's last axis runs over seeds: row (..., s)
    follows policies[group[..., s]] from the initial state and consumes
    default_rng(seeds[s]).random((periods, 4)). Returns the rows' outage
    indicators in group's flat order, packed by np.packbits along each row
    into (rows, ceil(periods / 8)) bytes, and each row's final 0-based state
    position.

    The error rates and successors are tabled once per policy. A row's
    state at position s is held as h = group * n_states + s, and the
    tables are indexed by it: the two devices' error rates form one
    (n, 2) table, for n states over all policies, and the successors one
    branch-major table, whose branch 2 * fail1 + fail2 starts at n times
    the branch. Each seed's generator is built once and drawn DRAW_CHUNK
    periods at a time, and each chunk is read once per seed into two
    blocks: its failure uniforms, copied into one (period, seed, 2) block,
    and its fresh-bit codes. A step compares every row with its seed's
    uniform pair, by broadcasting, into one bool grid whose uint16 view
    codes the flag pair and picks the branch's offset, then looks up the
    successor and adds the seed's bit code, writing the sum straight into
    the chunk's block of visited states, one per row, which is packed once
    the chunk is stepped. Every block is allocated once.
    """
    cfg = t.cfg
    n = len(policies) * cfg.n_states
    offset = cfg.n_states * np.arange(len(policies))
    # error rates (e1, e2) of the transition out of each (policy, state)
    rates = np.stack([e.ravel() for e in t.error_rates(policies)], axis=1)
    # [branch, policy, state]: the successor with channel bits (0, 0), the same for the four bits
    succ = np.repeat(4 * t.succ.T[:, None] + offset[:, None], 4, axis=2).ravel()
    out = np.tile(np.repeat(t.outage, 4), len(policies))
    branch = _branch_table(t.bits, n)

    rngs = [np.random.default_rng(seed) for seed in seeds]
    draws = np.empty((len(rngs), DRAW_CHUNK, 4))
    seed_bits = np.empty((DRAW_CHUNK, len(rngs)), dtype=np.intp)
    us = np.empty((DRAW_CHUNK, len(rngs), 2))
    visited = np.empty((DRAW_CHUNK,) + group.shape, dtype=np.intp)
    outage = np.empty((group.size, (periods + 7) // 8), dtype=np.uint8)
    fail = np.empty(group.shape + (2,), dtype=bool)
    code = fail.view(np.uint16).reshape(group.shape)
    base = offset[group]
    h = base + cfg.initial_position
    for start in range(0, periods, DRAW_CHUNK):
        m = min(DRAW_CHUNK, periods - start)
        for rng, buf in zip(rngs, draws):
            rng.random(out=buf[:m])
        u = draws[:, :m].transpose(1, 0, 2)  # (period, seed, column)
        # fresh channel bits k = 2 * x1 + x2 pick the successor's state
        seed_bits[:m] = 2 * (u[:, :, 2] < cfg.profile.alpha_1) + (u[:, :, 3] < cfg.profile.alpha_2)
        us[:m] = u[:, :, :2]  # (period, seed, device)
        for j in range(m):
            np.less(us[j], rates.take(h, axis=0), out=fail)
            h = np.add(succ.take(h + branch.take(code)), seed_bits[j], out=visited[j])
        # np.packbits along a strided axis is slow: pack a row-major copy of the bool flags
        flags = out.take(visited[:m].reshape(m, -1)).T.copy()
        outage[:, start // 8 : (start + m + 7) // 8] = np.packbits(flags, axis=1)
    return outage, (h - base).reshape(-1)


def _mean(lengths: list[int]) -> float:
    """Mean of run lengths; nan for none. The integer sum is exact, so this
    equals float(np.mean(lengths)) bit for bit."""
    return sum(lengths) / len(lengths) if lengths else float("nan")


def _simulate_rows(cfg: SystemConfig, policies, group: np.ndarray, periods: int, seeds) -> list[SimResult]:
    """Validate each policy once and run _lockstep's grid: row (..., s)
    follows policies[group[..., s]] with seed seeds[s], and the results come
    in group's flat order. Every row's outages are counted in one pass over
    the packed bits; np.packbits pads with zeros, so padding never counts."""
    if periods < 1:
        raise ValueError(f"periods must be >= 1, got {periods}")
    if group.size == 0:
        raise ValueError("need at least one policy and seed")
    pols = np.stack([validate_policy(p, cfg) for p in policies])
    outage, final = _lockstep(transition_tables(cfg), pols, group, periods, seeds)
    counts = _POPCOUNT[outage].sum(axis=1)
    return [
        SimResult(seed=seed, final_position=int(state), periods=periods, outage_count=int(count),
                  outage_bits=bits)
        for bits, seed, state, count in zip(outage, itertools.cycle(seeds), final, counts)
    ]


def simulate_many(cfg: SystemConfig, policies, periods: int, seeds) -> list[SimResult]:
    """Simulate one row per (policies[r], seeds[r]) pair for `periods`
    periods from cfg.initial. Row r equals
    simulate(cfg, policies[r], periods, seeds[r]); all rows advance in
    lockstep, each with its own policy and generator."""
    if len(policies) != len(seeds):
        raise ValueError(f"got {len(policies)} policies for {len(seeds)} seeds")
    return _simulate_rows(cfg, policies, np.arange(len(seeds)), periods, seeds)


def simulate(cfg: SystemConfig, policy, periods: int, seed: int) -> SimResult:
    """Simulate the chain for `periods` periods from cfg.initial."""
    return simulate_many(cfg, [policy], periods, [seed])[0]


@dataclass
class RepetitionSummary:
    """One policy's repetitions. The per-repetition rates and the pooled
    statistics are derived from the runs when read."""

    results: list[SimResult] = field(repr=False)

    @property
    def reps(self) -> int:
        return len(self.results)

    @cached_property
    def outage_rates(self) -> np.ndarray:
        """The per-repetition outage rates, gathered on first read."""
        return np.array([r.outage_rate for r in self.results])

    @property
    def outage_rate_mean(self) -> float:
        return float(self.outage_rates.mean())

    @property
    def outage_rate_std(self) -> float:
        """Sample std (ddof=1), 0 for a single repetition."""
        return float(self.outage_rates.std(ddof=1)) if self.reps > 1 else 0.0

    @property
    def burst_durations(self) -> list[int]:
        return [d for r in self.results for d in r.burst_durations]

    @property
    def ioi_durations(self) -> list[int]:
        return [d for r in self.results for d in r.ioi_durations]

    @property
    def mean_burst(self) -> float:
        return _mean(self.burst_durations)

    @property
    def mean_ioi(self) -> float:
        return _mean(self.ioi_durations)


def run_repetitions_many(
    cfg: SystemConfig, policies, reps: int, periods: int, master_seed: int
) -> list[RepetitionSummary]:
    """run_repetitions for each policy, all simulated in one lockstep batch.

    Every policy's repetition r uses the seed derive_seed(master_seed, r);
    the batch tables each policy once and draws each seed's stream once. Its
    rows are policy-major.
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    # the grid comes first, so a batch too large for numpy fails before any seed is derived
    group = np.indices((len(policies), reps))[0]
    seeds = [derive_seed(master_seed, r) for r in range(reps)]
    results = _simulate_rows(cfg, policies, group, periods, seeds)
    return [RepetitionSummary(results[i * reps : (i + 1) * reps]) for i in range(len(policies))]


def run_repetitions(
    cfg: SystemConfig, policy, reps: int, periods: int, master_seed: int
) -> RepetitionSummary:
    """Independent repetitions with index-derived seeds and pooled statistics."""
    return run_repetitions_many(cfg, [policy], reps, periods, master_seed)[0]


def normalized_error(measured: float, predicted: float | None) -> float:
    """|measured - predicted| / predicted; nan when either side is unusable."""
    if predicted is None or predicted <= 0.0 or not np.isfinite(measured):
        return float("nan")
    return abs(measured - predicted) / predicted


#: Prefix lengths at which burst_convergence measures each simulated run.
CHECKPOINTS = (500, 1000, 2500, 5000, 10000)


def burst_convergence(cfg: SystemConfig, n_policies: int, master_seed: int) -> list[dict]:
    """Measured-vs-analytic burst statistics over random policies.

    Policy pid draws its allocations from default_rng(derive_seed(master_seed,
    pid, 0)) into row pid of one array, sized before the first draw, and is
    simulated once for max(CHECKPOINTS) periods with seed
    derive_seed(master_seed, pid, 1); every checkpoint measures that run's
    prefix. All policies are analysed in one burst_stats_many batch, kept as
    the three numbers the rows report, and simulated together. Returns one
    row per (policy, checkpoint) with the measured and analytic outage rate,
    mean burst length and mean interval between bursts, and their relative
    errors. Raises RuntimeError for the first policy with no reachable
    outage.
    """
    policies = np.empty((n_policies, cfg.n_states), dtype=np.int64)
    for pid, policy in enumerate(policies):
        policy[:] = np.random.default_rng(derive_seed(master_seed, pid, 0)).integers(
            0, cfg.link.blocklength_total + 1, size=cfg.n_states
        )
    predicted = [(s.p_out, s.mean_outage_duration, s.mean_ioi) for s in burst_stats_many(cfg, policies)]
    for pid, (_, mean_burst, _) in enumerate(predicted):
        if mean_burst is None:
            raise RuntimeError(f"policy {pid} has no reachable outage; burst errors undefined")
    sim_seeds = [derive_seed(master_seed, pid, 1) for pid in range(n_policies)]
    results = simulate_many(cfg, policies, max(CHECKPOINTS), sim_seeds)
    rows = []
    for pid, (analytics, sim_seed, result) in enumerate(zip(predicted, sim_seeds, results)):
        seq = result.outage_sequence
        for cp in CHECKPOINTS:
            prefix = seq[:cp]
            bursts, iois = measure_bursts(prefix)
            row = {"policy_id": pid, "sim_seed": sim_seed, "checkpoint": cp}
            for name, measured, analytic in zip(
                ("p_out", "mean_burst", "mean_ioi"),
                (int(np.count_nonzero(prefix)) / cp, _mean(bursts), _mean(iois)),
                analytics,
            ):
                row[f"measured_{name}"] = measured
                row[f"analytic_{name}"] = analytic
                row[f"err_{name}"] = normalized_error(measured, analytic)
            rows.append(row)
    return rows


def _nanmedian(values: np.ndarray) -> float:
    """Median of the non-NaN values, nan when there are none, by a sort:
    np.nanmedian bit for bit below half the largest float, without
    np.nanmedian or np.median, which import numpy.ma."""
    kept = np.sort(values[~np.isnan(values)])
    if kept.size == 0:
        return float("nan")
    half = kept.size // 2
    return float(kept[half] if kept.size % 2 else (kept[half - 1] + kept[half]) / 2)


def median_errors(rows: list[dict]) -> np.ndarray:
    """Median relative errors (p_out, mean burst, mean interval) of
    burst_convergence rows, one row per checkpoint; NaNs are ignored."""
    keys = ("err_p_out", "err_mean_burst", "err_mean_ioi")
    return np.array([
        [_nanmedian(np.array([r[k] for r in rows if r["checkpoint"] == cp], dtype=float)) for k in keys]
        for cp in CHECKPOINTS
    ])
