"""Tests for the metrics registry used to instrument the ledger."""

from __future__ import annotations

import pytest

from repro.common.metrics import NULL_REGISTRY, MetricsRegistry


class TestCounters:
    def test_increment_defaults_to_one(self, metrics: MetricsRegistry):
        assert metrics.increment("a") == 1
        assert metrics.increment("a") == 2
        assert metrics.snapshot().counter("a") == 2

    def test_increment_by_amount(self, metrics: MetricsRegistry):
        metrics.increment("a", 5)
        metrics.increment("a", 3)
        assert metrics.snapshot().counter("a") == 8

    def test_unknown_counter_is_zero(self, metrics: MetricsRegistry):
        assert metrics.snapshot().counter("never-touched") == 0

    def test_increment_many_is_one_increment_per_pair(self, metrics: MetricsRegistry):
        metrics.increment("a", 2)
        metrics.increment_many(("a", 1), ("b", 5), ("a", 3), ("c", 0))
        metrics.increment_many()
        assert metrics.snapshot().counters == {"a": 6, "b": 5, "c": 0}

    def test_the_null_registry_records_no_increment_many(self):
        NULL_REGISTRY.increment_many(("a", 1), ("b", 5))
        assert NULL_REGISTRY.snapshot().counters == {}


class TestTimers:
    def test_timed_context_accumulates(self, metrics: MetricsRegistry, clock):
        with metrics.timed("t"):
            clock.now += 0.25
        with metrics.timed("t"):
            clock.now += 0.5
        assert metrics.snapshot().timer("t") == 0.75

    def test_timed_records_on_exception(self, metrics: MetricsRegistry, clock):
        with pytest.raises(RuntimeError):
            with metrics.timed("t"):
                clock.now += 0.125
                raise RuntimeError("boom")
        assert metrics.snapshot().timer("t") == 0.125

    def test_nested_blocks_of_one_name_each_add_their_own_time(
        self, metrics: MetricsRegistry, clock
    ):
        with metrics.timed("t"):
            clock.now += 0.25
            with metrics.timed("t"):
                clock.now += 0.5
            clock.now += 0.125
        # The inner block's 0.5 s, then the outer block's 0.875 s.
        assert metrics.snapshot().timer("t") == 1.375

    def test_the_null_registry_records_no_time(self, clock):
        with NULL_REGISTRY.timed("t"):
            clock.now += 0.5
        assert NULL_REGISTRY.snapshot().timers == {}

    def test_the_clock_is_read_through_timeutils(self, metrics: MetricsRegistry, clock):
        """The clock fixture stands in for ``timeutils.time``: a block in
        which it does not move adds exactly nothing, whatever the real
        clock did meanwhile."""
        with metrics.timed("t"):
            sum(range(10_000))
        assert metrics.snapshot().timers == {"t": 0.0}


class TestSnapshots:
    def test_snapshot_is_immutable_copy(self, metrics: MetricsRegistry):
        metrics.increment("a")
        snap = metrics.snapshot()
        metrics.increment("a")
        assert snap.counter("a") == 1
        assert metrics.snapshot().counter("a") == 2

    def test_diff_computes_deltas(self, metrics: MetricsRegistry, clock):
        metrics.increment("a", 2)
        with metrics.timed("t"):
            clock.now += 1.0
        before = metrics.snapshot()
        metrics.increment("a", 3)
        metrics.increment("b")
        with metrics.timed("t"):
            clock.now += 0.5
        delta = metrics.snapshot().diff(before)
        assert delta.counter("a") == 3
        assert delta.counter("b") == 1
        assert abs(delta.timer("t") - 0.5) < 1e-9
