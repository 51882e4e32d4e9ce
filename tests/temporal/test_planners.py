"""Tests for the M1 interval-creation strategies (planners)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import TemporalQueryError
from repro.temporal.events import LOAD, Event
from repro.temporal.intervals import TimeInterval
from repro.temporal.planners import (
    EquiCountPlanner,
    FixedLengthPlanner,
    GeometricPlanner,
    make_planner,
)

WINDOW = TimeInterval(0, 1_000)


def make_events(times):
    return [Event(time=t, key="k", other="o", kind=LOAD) for t in times]


def assert_tiles(intervals, window):
    """The planner contract: adjacent intervals covering the window."""
    assert intervals
    assert intervals[0].start == window.start
    assert intervals[-1].end == window.end
    for left, right in zip(intervals, intervals[1:]):
        assert left.end == right.start


class TestFixedLengthPlanner:
    def test_ignores_events(self):
        planner = FixedLengthPlanner(100)
        with_events = planner.plan(make_events([5, 500]), WINDOW)
        without = planner.plan([], WINDOW)
        assert with_events == without
        assert len(without) == 10

    def test_deterministic_flag(self):
        assert FixedLengthPlanner(10).deterministic
        assert not EquiCountPlanner(5).deterministic

    def test_tiles(self):
        assert_tiles(FixedLengthPlanner(128).plan([], WINDOW), WINDOW)


class TestEquiCountPlanner:
    def test_empty_events_single_interval(self):
        assert EquiCountPlanner(10).plan([], WINDOW) == [WINDOW]

    def test_exact_chunks(self):
        events = make_events([100, 200, 300, 400, 500, 600])
        intervals = EquiCountPlanner(2).plan(events, WINDOW)
        assert intervals == [
            TimeInterval(0, 200),
            TimeInterval(200, 400),
            TimeInterval(400, 1_000),
        ]
        assert_tiles(intervals, WINDOW)

    def test_each_interval_holds_n_events(self):
        times = [10, 20, 30, 40, 50, 60, 70]
        events = make_events(times)
        intervals = EquiCountPlanner(3).plan(events, WINDOW)
        assert_tiles(intervals, WINDOW)
        for interval in intervals[:-1]:
            count = sum(1 for t in times if interval.contains(t))
            assert count == 3
        last = intervals[-1]
        assert sum(1 for t in times if last.contains(t)) == 1

    def test_fewer_events_than_chunk(self):
        events = make_events([500])
        assert EquiCountPlanner(10).plan(events, WINDOW) == [WINDOW]

    def test_boundary_on_last_event_collapses(self):
        """If the n-th event is the final one, no boundary is cut there --
        the final chunk runs to the window end."""
        events = make_events([100, 200])
        intervals = EquiCountPlanner(2).plan(events, WINDOW)
        assert intervals == [WINDOW]

    def test_invalid_count_rejected(self):
        with pytest.raises(TemporalQueryError):
            EquiCountPlanner(0)

    @settings(max_examples=50)
    @given(
        times=st.lists(
            st.integers(min_value=1, max_value=999), min_size=0, max_size=40,
            unique=True,
        ),
        n=st.integers(min_value=1, max_value=10),
    )
    def test_tiling_property(self, times, n):
        events = make_events(sorted(times))
        intervals = EquiCountPlanner(n).plan(events, WINDOW)
        assert_tiles(intervals, WINDOW)
        # Every event is contained in exactly one interval.
        for t in times:
            assert sum(1 for iv in intervals if iv.contains(t)) == 1
        # No interior interval exceeds n events.
        for interval in intervals[:-1]:
            assert sum(1 for t in times if interval.contains(t)) <= n


class TestGeometricPlanner:
    def test_lengths_grow(self):
        intervals = GeometricPlanner(base=10, ratio=2.0).plan([], WINDOW)
        assert_tiles(intervals, WINDOW)
        lengths = [iv.length for iv in intervals]
        # Growing until the final clipped interval.
        assert all(a <= b for a, b in zip(lengths[:-2], lengths[1:-1]))
        assert lengths[0] == 10

    def test_ratio_one_is_fixed_length(self):
        intervals = GeometricPlanner(base=100, ratio=1.0).plan([], WINDOW)
        assert all(iv.length == 100 for iv in intervals)

    def test_validation(self):
        with pytest.raises(TemporalQueryError):
            GeometricPlanner(base=0)
        with pytest.raises(TemporalQueryError):
            GeometricPlanner(base=10, ratio=0.5)


class TestFactory:
    def test_fixed(self):
        planner = make_planner("fixed", u=100)
        assert planner.name == "fixed"

    def test_equicount(self):
        planner = make_planner("equicount", events_per_interval=8)
        assert planner.name == "equicount"

    def test_missing_params(self):
        with pytest.raises(TemporalQueryError):
            make_planner("fixed")
        with pytest.raises(TemporalQueryError):
            make_planner("equicount")

    def test_unknown(self):
        with pytest.raises(TemporalQueryError):
            make_planner("ml-driven")
