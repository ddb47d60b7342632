from collections import namedtuple

import pytest

from aoi_outage import (
    ChannelProfile,
    LinkParams,
    SystemConfig,
    TransitionTables,
    load_scenario,
)

GOOD_DB = -12.2
BAD_DB = -15.2


def make_config(alpha_1=0.6, alpha_2=0.4, n=40, d=2, a_max=2, a_out=1):
    profile = ChannelProfile(alpha_1, alpha_2, GOOD_DB, BAD_DB)
    link = LinkParams(blocklength_total=n, payload_bits=d)
    return SystemConfig(profile=profile, link=link, a_max=a_max, a_out=a_out)


# Scalar state oracles. They spell the layout of states.encode_states and
# decode_states independently, with 1-based indices: ages vary slowest, the
# device-2 bit fastest.
ReferenceState = namedtuple("ReferenceState", "a1 a2 x1 x2")


def reference_validate(state, a_max):
    if not (1 <= state.a1 <= a_max and 1 <= state.a2 <= a_max):
        raise ValueError(f"ages must lie in [1, {a_max}]: {state}")
    if state.x1 not in (0, 1) or state.x2 not in (0, 1):
        raise ValueError(f"channel bits must be 0 or 1: {state}")


def reference_state_to_index(state, a_max):
    """Canonical 1-based index of a state."""
    reference_validate(state, a_max)
    return 2 * (2 * ((state.a1 - 1) * a_max + state.a2 - 1) + state.x1) + state.x2 + 1


def reference_index_to_state(index, a_max):
    """Inverse of reference_state_to_index."""
    n_states = 4 * a_max * a_max
    if not 1 <= index <= n_states:
        raise ValueError(f"index must lie in [1, {n_states}], got {index}")
    r = index - 1
    x2 = r & 1
    r >>= 1
    x1 = r & 1
    r >>= 1
    a1, a2 = divmod(r, a_max)
    return ReferenceState(a1 + 1, a2 + 1, x1, x2)


def reference_is_outage(state, a_out):
    """True when at least one age strictly exceeds the threshold."""
    return state.a1 > a_out or state.a2 > a_out


def reference_enumerate_states(a_max):
    """All states in index order; position k holds reference_index_to_state(k + 1)."""
    if a_max < 1:
        raise ValueError(f"a_max must be >= 1, got {a_max}")
    return [reference_index_to_state(i, a_max) for i in range(1, 4 * a_max * a_max + 1)]


def reference_gamma_for_bit(profile, bit):
    """Linear SNR selected by a channel-state bit (1 means good)."""
    return profile.gamma_good if bit else profile.gamma_bad


def reference_bit_probability(profile, device, bit):
    """Probability that the channel bit of device 1 or 2 equals `bit`."""
    if device not in (1, 2):
        raise ValueError(f"device must be 1 or 2, got {device}")
    alpha = profile.alpha_1 if device == 1 else profile.alpha_2
    return alpha if bit else 1.0 - alpha


def random_policy(cfg, rng, low=0):
    return rng.integers(low, cfg.link.blocklength_total + 1, size=cfg.n_states)


@pytest.fixture(scope="session")
def cfg_b():
    """Heavy-fading preset at full scale (N=1000, 100 states)."""
    return load_scenario("scenario_b").system


@pytest.fixture(scope="session")
def tables_b(cfg_b):
    return TransitionTables(cfg_b)


@pytest.fixture(scope="session")
def small_cfg():
    """16-state instance, cheap enough for exhaustive oracles."""
    return make_config()


@pytest.fixture(scope="session")
def small_tables(small_cfg):
    return TransitionTables(small_cfg)


@pytest.fixture(scope="session")
def mid_cfg():
    """36-state instance with room between a_out and a_max."""
    return make_config(a_max=3, a_out=2)
