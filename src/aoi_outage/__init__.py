"""Blocklength allocation against age-of-information outage.

Two devices share a fixed short-packet blocklength each period over
independently fading uplinks. The package models the joint age/channel
process as a finite Markov chain, optimizes the per-state split with a
penalty-driven sweep, characterizes how outages cluster into
bursts, and cross-validates everything with a seeded simulator.
"""

__version__ = "0.1.0"

from .burstiness import (
    BurstStats,
    burst_stats,
    burst_stats_many,
    chain_burst_stats_many,
)
from .fbl import (
    ChannelProfile,
    LinkParams,
    block_error_rate,
    channel_dispersion,
    db_to_linear,
    q_function,
    shannon_capacity,
)
from .markov import (
    SteadyStateError,
    TransitionTables,
    build_transition_matrices,
    build_transition_matrix,
    outage_probability,
    steady_state,
    steady_states,
    transition_tables,
    validate_policy,
)
from .optimizer import (
    OptimizeReport,
    PenaltyKind,
    improve_policy,
    min_error_policy,
    naive_policy,
    optimize,
)
from .scenarios import ConfigError, Scenario, load_scenario, parse_scenario, PRESETS
from .simulate import (
    RepetitionSummary,
    SimResult,
    burst_convergence,
    derive_seed,
    measure_bursts,
    run_repetitions,
    run_repetitions_many,
    simulate,
    simulate_many,
)
from .states import SystemConfig, outage_mask
