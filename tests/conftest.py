from collections import namedtuple

import mpmath
import pytest

from aoi_outage import (
    ChannelProfile,
    LinkParams,
    SystemConfig,
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


def reference_gth(p, dps=50):
    """Stationary law of the irreducible chain p by GTH elimination (Grassmann,
    Taksar & Heyman, Oper. Res. 33(5), 1985) in dps-digit arithmetic, as a
    list of floats. The chain is read by its off-diagonal entries, each float
    taken exactly: the diagonal is never read, so the exact chain is the one
    whose diagonal is 1 minus the off-diagonal row sum."""
    n = len(p)
    with mpmath.workdps(dps):
        a = [[mpmath.mpf(float(x)) for x in row] for row in p]
        for k in range(n - 1, 0, -1):
            s = mpmath.fsum(a[k][:k])
            if s == 0:
                raise ValueError(f"state {k} reaches no lower state: chain not irreducible")
            for i in range(k):
                a[i][k] /= s
                for j in range(k):
                    if j != i:
                        a[i][j] += a[i][k] * a[k][j]
        pi = [mpmath.mpf(1)]
        for k in range(1, n):
            pi.append(mpmath.fsum(pi[i] * a[i][k] for i in range(k)))
        total = mpmath.fsum(pi)
        return [float(x / total) for x in pi]


def random_policy(cfg, rng, low=0):
    return rng.integers(low, cfg.link.blocklength_total + 1, size=cfg.n_states)


@pytest.fixture(scope="session")
def cfg_b():
    """Heavy-fading preset at full scale (N=1000, 100 states)."""
    return load_scenario("scenario_b").system


@pytest.fixture(scope="session")
def small_cfg():
    """16-state instance, cheap enough for exhaustive oracles."""
    return make_config()


@pytest.fixture(scope="session")
def mid_cfg():
    """36-state instance with room between a_out and a_max."""
    return make_config(a_max=3, a_out=2)
