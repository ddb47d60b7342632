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
