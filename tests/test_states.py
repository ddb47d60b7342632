"""State encoding, enumeration, outage set, and config validation."""

import pytest
from hypothesis import given, strategies as st

from aoi_outage.states import (
    SystemConfig,
    SystemState,
    enumerate_states,
    index_to_state,
    is_outage,
    outage_mask,
    state_to_index,
)

from conftest import make_config


class TestIndexing:
    def test_first_state(self):
        assert state_to_index(SystemState(1, 1, 0, 0), 5) == 1

    def test_last_state(self):
        assert state_to_index(SystemState(5, 5, 1, 1), 5) == 100

    def test_interior_state(self):
        assert state_to_index(SystemState(1, 2, 0, 0), 5) == 5

    def test_inverse_examples(self):
        assert index_to_state(1, 5) == SystemState(1, 1, 0, 0)
        assert index_to_state(100, 5) == SystemState(5, 5, 1, 1)

    @pytest.mark.parametrize("a_max", range(1, 11))
    def test_round_trip_bijection(self, a_max):
        seen = set()
        for i in range(1, 4 * a_max * a_max + 1):
            s = index_to_state(i, a_max)
            seen.add(s)
            assert state_to_index(s, a_max) == i
        assert len(seen) == 4 * a_max * a_max

    @given(st.integers(1, 12), st.data())
    def test_round_trip_random(self, a_max, data):
        i = data.draw(st.integers(1, 4 * a_max * a_max))
        assert state_to_index(index_to_state(i, a_max), a_max) == i

    def test_rejects_out_of_range_state(self):
        with pytest.raises(ValueError):
            state_to_index(SystemState(0, 1, 0, 0), 5)
        with pytest.raises(ValueError):
            state_to_index(SystemState(1, 6, 0, 0), 5)
        with pytest.raises(ValueError):
            state_to_index(SystemState(1, 1, 2, 0), 5)

    def test_rejects_out_of_range_index(self):
        with pytest.raises(ValueError):
            index_to_state(0, 5)
        with pytest.raises(ValueError):
            index_to_state(101, 5)


class TestOutage:
    def test_examples(self):
        assert is_outage(SystemState(4, 1, 0, 0), 3) is True
        assert is_outage(SystemState(3, 3, 1, 1), 3) is False  # threshold is strict
        assert is_outage(SystemState(1, 1, 0, 0), 3) is False

    def test_second_device_counts(self):
        assert is_outage(SystemState(1, 4, 1, 0), 3) is True

    @pytest.mark.parametrize("a_max", range(1, 7))
    def test_outage_set_size(self, a_max):
        for a_out in range(1, a_max + 1):
            mask = outage_mask(a_max, a_out)
            assert mask.sum() == 4 * (a_max * a_max - a_out * a_out)


class TestEnumeration:
    def test_tiny_case(self):
        assert enumerate_states(1) == [
            SystemState(1, 1, 0, 0),
            SystemState(1, 1, 0, 1),
            SystemState(1, 1, 1, 0),
            SystemState(1, 1, 1, 1),
        ]

    def test_count_and_order(self):
        states = enumerate_states(5)
        assert len(states) == 100
        assert len(set(states)) == 100
        for pos, s in enumerate(states):
            assert state_to_index(s, 5) == pos + 1

    def test_rejects_bad_a_max(self):
        with pytest.raises(ValueError):
            enumerate_states(0)


class TestSystemConfig:
    def test_valid(self):
        cfg = make_config()
        assert cfg.n_states == 16
        assert cfg.initial_index == 1

    def test_a_out_bounds(self):
        with pytest.raises(ValueError):
            make_config(a_out=0)
        with pytest.raises(ValueError):
            make_config(a_out=3, a_max=2)

    def test_empty_outage_set_warns(self):
        with pytest.warns(UserWarning, match="outage set is empty"):
            make_config(a_max=2, a_out=2)

    def test_initial_state_validated(self):
        cfg = make_config()
        with pytest.raises(ValueError):
            SystemConfig(
                profile=cfg.profile,
                link=cfg.link,
                a_max=2,
                a_out=1,
                initial_state=SystemState(3, 1, 0, 0),
            )
