"""Tests for the (start, end] interval algebra and fixed-length scheme."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import TemporalQueryError
from repro.temporal.intervals import FixedIntervalScheme, TimeInterval


class TestTimeInterval:
    def test_contains_is_half_open_left(self):
        interval = TimeInterval(10, 20)
        assert not interval.contains(10)  # start excluded
        assert interval.contains(11)
        assert interval.contains(20)  # end included
        assert not interval.contains(21)

    def test_empty_interval_rejected(self):
        with pytest.raises(TemporalQueryError):
            TimeInterval(5, 5)
        with pytest.raises(TemporalQueryError):
            TimeInterval(7, 3)

    def test_negative_bounds_rejected(self):
        with pytest.raises(TemporalQueryError):
            TimeInterval(-1, 5)

    def test_overlap(self):
        assert TimeInterval(0, 10).overlaps(TimeInterval(5, 15))
        assert TimeInterval(5, 15).overlaps(TimeInterval(0, 10))
        assert not TimeInterval(0, 10).overlaps(TimeInterval(10, 20))  # adjacent
        assert not TimeInterval(10, 20).overlaps(TimeInterval(0, 10))

    def test_intersection(self):
        assert TimeInterval(0, 10).intersection(TimeInterval(5, 15)) == TimeInterval(5, 10)
        assert TimeInterval(0, 10).intersection(TimeInterval(10, 20)) is None
        assert TimeInterval(0, 30).intersection(TimeInterval(10, 20)) == TimeInterval(10, 20)

    def test_length_and_str(self):
        interval = TimeInterval(2_000, 4_000)
        assert (interval.start, interval.end) == (2_000, 4_000)
        assert str(interval) == "(2000-4000]"


class TestFixedIntervalScheme:
    def test_interval_for_interior_point(self):
        scheme = FixedIntervalScheme(2_000)
        assert TimeInterval(*scheme.bounds_for(1)) == TimeInterval(0, 2_000)
        assert TimeInterval(*scheme.bounds_for(1_999)) == TimeInterval(0, 2_000)
        assert TimeInterval(*scheme.bounds_for(2_001)) == TimeInterval(2_000, 4_000)

    def test_interval_for_boundary_belongs_left(self):
        """t = k*u lands in ((k-1)u, ku] -- the only partition-consistent
        reading of the paper's floor/ceil formula."""
        scheme = FixedIntervalScheme(2_000)
        assert TimeInterval(*scheme.bounds_for(2_000)) == TimeInterval(0, 2_000)
        assert TimeInterval(*scheme.bounds_for(4_000)) == TimeInterval(2_000, 4_000)

    def test_interval_for_zero_rejected(self):
        with pytest.raises(TemporalQueryError):
            FixedIntervalScheme(10).bounds_for(0)

    def test_non_positive_u_rejected(self):
        with pytest.raises(TemporalQueryError):
            FixedIntervalScheme(0)


class TestIntervalForBoundaries:
    """The bucketing edge cases the parallel-equivalence work flushed out:
    t ∈ {0, u, u+1, k·u} must bucket per the paper's (start, end]
    convention, and the t=0 rejection must tell the caller what to do."""

    U = 2_000

    def test_zero_raises_typed_error_with_actionable_message(self):
        scheme = FixedIntervalScheme(self.U)
        with pytest.raises(TemporalQueryError) as excinfo:
            scheme.bounds_for(0)
        message = str(excinfo.value)
        # The message must say what's wrong AND how to fix it.
        assert "no (start, end] index interval" in message
        assert "t >= 1" in message

    def test_negative_timestamp_raises_same_typed_error(self):
        with pytest.raises(TemporalQueryError):
            FixedIntervalScheme(self.U).bounds_for(-5)

    def test_exactly_u_belongs_to_first_interval(self):
        # t = u is the *inclusive end* of (0, u], not the start of (u, 2u].
        interval = TimeInterval(*FixedIntervalScheme(self.U).bounds_for(self.U))
        assert interval == TimeInterval(0, self.U)
        assert interval.contains(self.U)

    def test_u_plus_one_starts_second_interval(self):
        interval = TimeInterval(*FixedIntervalScheme(self.U).bounds_for(self.U + 1))
        assert interval == TimeInterval(self.U, 2 * self.U)
        assert interval.contains(self.U + 1)

    @pytest.mark.parametrize("k", [1, 2, 3, 7, 75])
    def test_every_multiple_of_u_belongs_left(self, k):
        # A naive t // u files t = k*u into ((k)u, (k+1)u] -- one interval
        # too late; the ceil formula must land it in ((k-1)u, ku].
        scheme = FixedIntervalScheme(self.U)
        interval = TimeInterval(*scheme.bounds_for(k * self.U))
        assert interval == TimeInterval((k - 1) * self.U, k * self.U)

    def test_unit_u_degenerates_to_singletons(self):
        # u=1: every timestamp gets its own interval (t-1, t].
        scheme = FixedIntervalScheme(1)
        assert TimeInterval(*scheme.bounds_for(1)) == TimeInterval(0, 1)
        assert TimeInterval(*scheme.bounds_for(42)) == TimeInterval(41, 42)

    def test_bounds_for_is_interval_for_as_integers(self):
        scheme = FixedIntervalScheme(100)
        for t in (1, 99, 100, 101, 250):
            # The one index interval overlapping the single point (t-1, t].
            (home,) = scheme.iter_intervals_overlapping(TimeInterval(t - 1, t))
            assert scheme.bounds_for(t) == (home.start, home.end)
            assert all(type(bound) is int for bound in scheme.bounds_for(t))
        with pytest.raises(TemporalQueryError, match="no \\(start, end\\]"):
            scheme.bounds_for(0)

    def test_intervals_overlapping_paper_example(self):
        """Query (10K, 20K] with u=2K touches exactly the 5 intervals the
        paper lists in Section VII-A."""
        scheme = FixedIntervalScheme(2_000)
        overlapping = list(scheme.iter_intervals_overlapping(TimeInterval(10_000, 20_000)))
        assert overlapping == [
            TimeInterval(10_000, 12_000),
            TimeInterval(12_000, 14_000),
            TimeInterval(14_000, 16_000),
            TimeInterval(16_000, 18_000),
            TimeInterval(18_000, 20_000),
        ]

    def test_intervals_overlapping_unaligned_window(self):
        scheme = FixedIntervalScheme(100)
        overlapping = list(scheme.iter_intervals_overlapping(TimeInterval(150, 250)))
        assert overlapping == [
            TimeInterval(100, 200),
            TimeInterval(200, 300),
        ]

    def test_partition(self):
        # An aligned window clips nothing: whole u-length tiles.
        scheme = FixedIntervalScheme(50)
        parts = scheme.partition_clipped(TimeInterval(100, 250))
        assert parts == [
            TimeInterval(100, 150),
            TimeInterval(150, 200),
            TimeInterval(200, 250),
        ]


@given(t=st.integers(min_value=1, max_value=10**9), u=st.integers(min_value=1, max_value=10**6))
def test_interval_for_always_contains_t(t, u):
    interval = TimeInterval(*FixedIntervalScheme(u).bounds_for(t))
    assert interval.contains(t)
    assert interval.end - interval.start == u
    assert interval.start % u == 0


#: ``(u, window length)`` with ``length / u`` at most 2,000: an example
#: builds a couple of thousand intervals, not 10**5 of them at ``u=1``.
_UNIT_AND_LENGTH = st.integers(min_value=1, max_value=10**4).flatmap(
    lambda u: st.tuples(
        st.just(u), st.integers(min_value=1, max_value=min(10**5, 2_000 * u))
    )
)


@given(start=st.integers(min_value=0, max_value=10**6), unit_and_length=_UNIT_AND_LENGTH)
def test_overlapping_intervals_tile_the_window(start, unit_and_length):
    """The overlapping intervals are adjacent, cover the window, and each
    one genuinely overlaps it."""
    u, length = unit_and_length
    window = TimeInterval(start, start + length)
    scheme = FixedIntervalScheme(u)
    intervals = list(scheme.iter_intervals_overlapping(window))
    assert intervals, "a non-empty window always overlaps something"
    for interval in intervals:
        assert interval.overlaps(window)
    for left, right in zip(intervals, intervals[1:]):
        assert left.end == right.start
    assert intervals[0].start <= window.start
    assert intervals[-1].end >= window.end


@given(
    a_start=st.integers(min_value=0, max_value=1000),
    a_len=st.integers(min_value=1, max_value=100),
    b_start=st.integers(min_value=0, max_value=1000),
    b_len=st.integers(min_value=1, max_value=100),
)
def test_overlap_agrees_with_intersection(a_start, a_len, b_start, b_len):
    a = TimeInterval(a_start, a_start + a_len)
    b = TimeInterval(b_start, b_start + b_len)
    assert a.overlaps(b) == (a.intersection(b) is not None)
    assert a.overlaps(b) == b.overlaps(a)
