"""Tests for composite key encoding and the event schema."""

from __future__ import annotations

import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import TemporalQueryError
from repro.temporal.events import LOAD, UNLOAD, Event, events_from_values, events_to_values
from repro.temporal.intervals import TimeInterval
from repro.temporal.keys import (
    decode_interval_key,
    encode_interval_key,
    interval_key_range,
    is_interval_key,
    validate_base_key,
)


class TestCompositeKeys:
    def test_round_trip(self):
        interval = TimeInterval(2_000, 4_000)
        composite = encode_interval_key("S00001", interval)
        assert decode_interval_key(composite) == ("S00001", interval)

    def test_is_interval_key(self):
        assert is_interval_key(encode_interval_key("k", TimeInterval(0, 10)))
        assert not is_interval_key("S00001")

    def test_reserved_bytes_rejected(self):
        with pytest.raises(TemporalQueryError):
            validate_base_key("bad\x00key")
        with pytest.raises(TemporalQueryError):
            validate_base_key("bad\x01key")
        with pytest.raises(TemporalQueryError):
            validate_base_key("")

    def test_decode_rejects_plain_keys(self):
        with pytest.raises(TemporalQueryError):
            decode_interval_key("S00001")

    def test_decode_rejects_malformed_bounds(self):
        with pytest.raises(TemporalQueryError):
            decode_interval_key("k\x00abc\x00def")

    def test_interval_keys_sort_by_base_then_start(self):
        keys = [
            encode_interval_key("S2", TimeInterval(0, 10)),
            encode_interval_key("S1", TimeInterval(90, 100)),
            encode_interval_key("S1", TimeInterval(0, 10)),
            encode_interval_key("S10", TimeInterval(0, 10)),
        ]
        ordered = sorted(keys)
        decoded = [decode_interval_key(key)[0] for key in ordered]
        assert decoded == ["S1", "S1", "S10", "S2"]
        assert decode_interval_key(ordered[0])[1].start == 0
        assert decode_interval_key(ordered[1])[1].start == 90

    def test_range_covers_exactly_one_base_key(self):
        start, end = interval_key_range("S1")
        inside = encode_interval_key("S1", TimeInterval(0, 10))
        other = encode_interval_key("S10", TimeInterval(0, 10))
        assert start <= inside < end
        assert not (start <= other < end)
        assert not (start <= "S1" < end)

    @given(
        base=st.text(
            alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x7E),
            min_size=1,
            max_size=10,
        ),
        start=st.integers(min_value=0, max_value=10**10),
        length=st.integers(min_value=1, max_value=10**6),
    )
    def test_round_trip_property(self, base, start, length):
        interval = TimeInterval(start, start + length)
        assert decode_interval_key(encode_interval_key(base, interval)) == (
            base,
            interval,
        )


class TestEvents:
    def test_value_round_trip(self):
        event = Event(time=42, key="S00001", other="C00002", kind=LOAD)
        assert Event.from_value("S00001", event.to_value()) == event

    def test_bad_kind_rejected(self):
        with pytest.raises(TemporalQueryError):
            Event(time=1, key="k", other="o", kind="loadish")

    def test_time_zero_rejected(self):
        with pytest.raises(TemporalQueryError):
            Event(time=0, key="k", other="o", kind=LOAD)

    def test_is_load(self):
        assert Event(time=1, key="k", other="o", kind=LOAD).is_load
        assert not Event(time=1, key="k", other="o", kind=UNLOAD).is_load

    def test_ordering_by_time(self):
        early = Event(time=1, key="z", other="o", kind=UNLOAD)
        late = Event(time=2, key="a", other="o", kind=LOAD)
        assert sorted([late, early]) == [early, late]

    def test_malformed_value_rejected(self):
        with pytest.raises(TemporalQueryError, match="malformed"):
            Event.from_value("k", {"wrong": "shape"})

    def test_bundle_round_trip(self):
        events = [
            Event(time=1, key="k", other="a", kind=LOAD),
            Event(time=5, key="k", other="a", kind=UNLOAD),
        ]
        assert events_from_values("k", events_to_values(events)) == events


events = st.builds(
    Event,
    time=st.integers(min_value=1, max_value=40),
    key=st.sampled_from(["S1", "S2", "C1"]),
    other=st.sampled_from(["C1", "T1", "T2"]),
    kind=st.sampled_from([LOAD, UNLOAD]),
)


class TestEventContract:
    """``Event`` is a validated named tuple: it orders, compares, hashes,
    prints and pickles as the frozen dataclass it replaced, and no way of
    building one skips its checks."""

    @given(st.lists(events, max_size=30))
    def test_sorting_orders_by_time_key_other_kind(self, batch):
        by_fields = sorted(batch, key=lambda e: (e.time, e.key, e.other, e.kind))
        assert sorted(batch) == by_fields

    @given(events)
    def test_equality_and_hash_follow_the_fields(self, event):
        twin = Event(time=event.time, key=event.key, other=event.other, kind=event.kind)
        assert twin == event and hash(twin) == hash(event)
        assert len({event, twin}) == 1
        assert event != event._replace(time=event.time + 1)
        assert event != event._replace(other=event.other + "x")

    @given(events)
    def test_pickle_and_copy_round_trip(self, event):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            restored = pickle.loads(pickle.dumps(event, protocol))
            assert restored == event and type(restored) is Event
        assert copy.copy(event) == event
        assert copy.deepcopy(event) == event

    def test_repr_and_fields(self):
        event = Event(time=3, key="S1", other="C2", kind=LOAD)
        assert repr(event) == "Event(time=3, key='S1', other='C2', kind='l')"
        assert (event.time, event.key, event.other, event.kind) == (3, "S1", "C2", LOAD)
        assert Event._fields == ("time", "key", "other", "kind")

    def test_attributes_cannot_be_assigned(self):
        event = Event(time=3, key="S1", other="C2", kind=LOAD)
        with pytest.raises(AttributeError):
            event.time = 4
        with pytest.raises(AttributeError):
            event.extra = 1
        assert event.time == 3

    def test_replace_and_make_validate(self):
        event = Event(time=3, key="S1", other="C2", kind=LOAD)
        assert event._replace(kind=UNLOAD) == Event(3, "S1", "C2", UNLOAD)
        assert type(Event._make([4, "S1", "C2", LOAD])) is Event
        with pytest.raises(TemporalQueryError, match="must be positive"):
            event._replace(time=0)
        with pytest.raises(TemporalQueryError, match="must be positive"):
            event._replace(time=-3)
        with pytest.raises(TemporalQueryError, match="event kind must be"):
            event._replace(kind="bogus")
        with pytest.raises(TemporalQueryError, match="event kind must be"):
            Event._make([1, "k", "o", "bogus"])

    @pytest.mark.parametrize(
        "value, message",
        [
            ({"t": 0, "o": "x", "e": LOAD},
             "event time must be positive (no (start, end] interval contains 0)"),
            ({"t": 1, "o": "x", "e": "q"}, "event kind must be 'l' or 'ul', got 'q'"),
            ({"t": 0, "o": "x", "e": "q"}, "event kind must be 'l' or 'ul', got 'q'"),
            ({"o": "x", "e": LOAD}, "malformed event value for key 'k': {'o': 'x', 'e': 'l'}"),
            ({"t": 1, "e": LOAD}, "malformed event value for key 'k': {'t': 1, 'e': 'l'}"),
            ({"t": 1, "e": "q"}, "malformed event value for key 'k': {'t': 1, 'e': 'q'}"),
            ({"t": None, "o": "x", "e": LOAD},
             "malformed event value for key 'k': {'t': None, 'o': 'x', 'e': 'l'}"),
            (None, "malformed event value for key 'k': None"),
        ],
    )
    def test_from_value_error_messages(self, value, message):
        with pytest.raises(TemporalQueryError) as raised:
            Event.from_value("k", value)
        assert str(raised.value) == message
