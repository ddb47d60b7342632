"""State encoding, enumeration, outage set, and config validation.

The program's layout (encode_states, decode_states) is checked against the
scalar 1-based oracles in conftest, and the oracles are pinned by example.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from aoi_outage.states import SystemConfig, decode_states, encode_states, outage_mask

from conftest import (
    ReferenceState,
    make_config,
    reference_enumerate_states,
    reference_index_to_state,
    reference_is_outage,
    reference_state_to_index,
)


class TestIndexing:
    def test_first_state(self):
        assert reference_state_to_index(ReferenceState(1, 1, 0, 0), 5) == 1
        assert encode_states(1, 1, 0, 0, 5) == 0

    def test_last_state(self):
        assert reference_state_to_index(ReferenceState(5, 5, 1, 1), 5) == 100
        assert encode_states(5, 5, 1, 1, 5) == 99

    def test_interior_state(self):
        assert reference_state_to_index(ReferenceState(1, 2, 0, 0), 5) == 5
        assert encode_states(1, 2, 0, 0, 5) == 4

    def test_inverse_examples(self):
        assert reference_index_to_state(1, 5) == ReferenceState(1, 1, 0, 0)
        assert reference_index_to_state(100, 5) == ReferenceState(5, 5, 1, 1)
        fields = np.stack(decode_states(5), axis=1)
        assert fields[0].tolist() == [1, 1, 0, 0]
        assert fields[99].tolist() == [5, 5, 1, 1]

    @pytest.mark.parametrize("a_max", range(1, 11))
    def test_round_trip_bijection(self, a_max):
        seen = set()
        for i in range(1, 4 * a_max * a_max + 1):
            s = reference_index_to_state(i, a_max)
            seen.add(s)
            assert reference_state_to_index(s, a_max) == i
        assert len(seen) == 4 * a_max * a_max

    @given(st.integers(1, 12), st.data())
    def test_round_trip_random(self, a_max, data):
        i = data.draw(st.integers(1, 4 * a_max * a_max))
        s = reference_index_to_state(i, a_max)
        assert reference_state_to_index(s, a_max) == i
        assert encode_states(*s, a_max) == i - 1

    def test_rejects_out_of_range_state(self):
        with pytest.raises(ValueError):
            reference_state_to_index(ReferenceState(0, 1, 0, 0), 5)
        with pytest.raises(ValueError):
            reference_state_to_index(ReferenceState(1, 6, 0, 0), 5)
        with pytest.raises(ValueError):
            reference_state_to_index(ReferenceState(1, 1, 2, 0), 5)

    def test_rejects_out_of_range_index(self):
        with pytest.raises(ValueError):
            reference_index_to_state(0, 5)
        with pytest.raises(ValueError):
            reference_index_to_state(101, 5)


class TestEncoding:
    @pytest.mark.parametrize("a_max", range(1, 11))
    def test_encode_inverts_decode(self, a_max):
        positions = encode_states(*decode_states(a_max), a_max)
        assert np.array_equal(positions, np.arange(4 * a_max * a_max))

    @pytest.mark.parametrize("a_max", range(1, 7))
    def test_encoder_matches_oracle(self, a_max):
        states = reference_enumerate_states(a_max)
        for s in states:
            assert encode_states(*s, a_max) == reference_state_to_index(s, a_max) - 1
        fields = np.stack(decode_states(a_max), axis=1)
        assert fields.tolist() == [list(s) for s in states]

    def test_rejects_bad_a_max(self):
        with pytest.raises(ValueError):
            decode_states(0)


class TestOutage:
    # the mask runs over age positions, a state's position // 4
    def test_examples(self):
        assert reference_is_outage(ReferenceState(4, 1, 0, 0), 3) is True
        assert reference_is_outage(ReferenceState(3, 3, 1, 1), 3) is False  # threshold is strict
        assert reference_is_outage(ReferenceState(1, 1, 0, 0), 3) is False
        mask = outage_mask(5, 3)
        assert mask[encode_states(4, 1, 0, 0, 5) // 4]
        assert not mask[encode_states(3, 3, 1, 1, 5) // 4]
        assert not mask[encode_states(1, 1, 0, 0, 5) // 4]

    def test_second_device_counts(self):
        assert reference_is_outage(ReferenceState(1, 4, 1, 0), 3) is True
        assert outage_mask(5, 3)[encode_states(1, 4, 1, 0, 5) // 4]

    @pytest.mark.parametrize("a_max", range(1, 7))
    def test_outage_set_size(self, a_max):
        for a_out in range(1, a_max + 1):
            mask = outage_mask(a_max, a_out)
            assert mask.shape == (a_max * a_max,)
            assert mask.sum() == a_max * a_max - a_out * a_out

    @pytest.mark.parametrize("a_max", range(1, 7))
    def test_mask_matches_oracle(self, a_max):
        states = reference_enumerate_states(a_max)
        for a_out in range(1, a_max + 1):
            expected = [reference_is_outage(s, a_out) for s in states]
            assert np.repeat(outage_mask(a_max, a_out), 4).tolist() == expected


class TestEnumeration:
    def test_tiny_case(self):
        assert reference_enumerate_states(1) == [
            ReferenceState(1, 1, 0, 0),
            ReferenceState(1, 1, 0, 1),
            ReferenceState(1, 1, 1, 0),
            ReferenceState(1, 1, 1, 1),
        ]

    def test_count_and_order(self):
        states = reference_enumerate_states(5)
        assert len(states) == 100
        assert len(set(states)) == 100
        for pos, s in enumerate(states):
            assert reference_state_to_index(s, 5) == pos + 1

    def test_rejects_bad_a_max(self):
        with pytest.raises(ValueError):
            reference_enumerate_states(0)


class TestSystemConfig:
    def test_valid(self):
        cfg = make_config()
        assert cfg.n_states == 16

    def test_has_no_start_state(self):
        # every run starts at position 0: ages (1, 1), both channel bits 0
        assert [f.name for f in dataclasses.fields(SystemConfig)] == ["profile", "link", "a_max", "a_out"]
        cfg = make_config()
        with pytest.raises(TypeError, match="initial"):
            SystemConfig(profile=cfg.profile, link=cfg.link, a_max=2, a_out=1, initial=(1, 1, 0, 0))

    def test_a_out_bounds(self):
        with pytest.raises(ValueError):
            make_config(a_out=0)
        with pytest.raises(ValueError):
            make_config(a_out=3, a_max=2)

    def test_empty_outage_set_warns(self):
        with pytest.warns(UserWarning, match="outage set is empty"):
            make_config(a_max=2, a_out=2)

    def test_empty_outage_set_warning_names_the_caller(self):
        cfg = make_config()
        with pytest.warns(UserWarning, match="outage set is empty") as record:
            SystemConfig(profile=cfg.profile, link=cfg.link, a_max=2, a_out=2)
        assert [w.filename for w in record] == [__file__]
