"""Tests for the metrics registry used to instrument the ledger."""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.common.metrics import NULL_REGISTRY, MetricsRegistry


class TestCounters:
    def test_increment_defaults_to_one(self, metrics: MetricsRegistry):
        assert metrics.increment("a") == 1
        assert metrics.increment("a") == 2
        assert metrics.counter("a") == 2

    def test_increment_by_amount(self, metrics: MetricsRegistry):
        metrics.increment("a", 5)
        metrics.increment("a", 3)
        assert metrics.counter("a") == 8

    def test_unknown_counter_is_zero(self, metrics: MetricsRegistry):
        assert metrics.counter("never-touched") == 0

    def test_increment_many_is_one_increment_per_pair(self, metrics: MetricsRegistry):
        metrics.increment("a", 2)
        metrics.increment_many(("a", 1), ("b", 5), ("a", 3), ("c", 0))
        metrics.increment_many()
        assert metrics.snapshot().counters == {"a": 6, "b": 5, "c": 0}

    def test_the_null_registry_records_no_increment_many(self):
        NULL_REGISTRY.increment_many(("a", 1), ("b", 5))
        assert NULL_REGISTRY.counter("a") == NULL_REGISTRY.counter("b") == 0
        assert NULL_REGISTRY.snapshot().counters == {}

    def test_reset(self, metrics: MetricsRegistry):
        metrics.increment("a")
        metrics.add_time("t", 1.0)
        metrics.reset()
        assert metrics.counter("a") == 0
        assert metrics.timer("t") == 0.0


class TestTimers:
    def test_add_time_accumulates(self, metrics: MetricsRegistry):
        metrics.add_time("t", 0.5)
        metrics.add_time("t", 0.25)
        assert metrics.timer("t") == 0.75

    def test_timed_context_accumulates(self, metrics: MetricsRegistry, clock):
        with metrics.timed("t"):
            clock.now += 0.25
        with metrics.timed("t"):
            clock.now += 0.5
        assert metrics.timer("t") == 0.75

    def test_timed_records_on_exception(self, metrics: MetricsRegistry, clock):
        with pytest.raises(RuntimeError):
            with metrics.timed("t"):
                clock.now += 0.125
                raise RuntimeError("boom")
        assert metrics.timer("t") == 0.125


class TestSnapshots:
    def test_snapshot_is_immutable_copy(self, metrics: MetricsRegistry):
        metrics.increment("a")
        snap = metrics.snapshot()
        metrics.increment("a")
        assert snap.counter("a") == 1
        assert metrics.counter("a") == 2

    def test_diff_computes_deltas(self, metrics: MetricsRegistry):
        metrics.increment("a", 2)
        metrics.add_time("t", 1.0)
        before = metrics.snapshot()
        metrics.increment("a", 3)
        metrics.increment("b")
        metrics.add_time("t", 0.5)
        delta = metrics.snapshot().diff(before)
        assert delta.counter("a") == 3
        assert delta.counter("b") == 1
        assert abs(delta.timer("t") - 0.5) < 1e-9

    def test_as_dict_merges_counters_and_timers(self, metrics: MetricsRegistry):
        metrics.increment("a")
        metrics.add_time("t", 2.0)
        merged = metrics.as_dict()
        assert merged["a"] == 1
        assert merged["t"] == 2.0


class TestThreadSafety:
    """Queries racing a commit (or each other) increment shared counters
    from several threads; ``increment`` and ``increment_many`` must be
    atomic, and must not lose each other's updates."""

    THREADS = 8
    ITERATIONS = 2_000

    def test_concurrent_increment_is_exact(self, metrics: MetricsRegistry):
        barrier = threading.Barrier(self.THREADS)

        def hammer() -> None:
            barrier.wait()
            for _ in range(self.ITERATIONS):
                metrics.increment("hits")
                metrics.increment("bytes", 3)
                metrics.increment_many(("hits", 1), ("bytes", 5), ("pairs", 1))

        with ThreadPoolExecutor(max_workers=self.THREADS) as pool:
            for future in [pool.submit(hammer) for _ in range(self.THREADS)]:
                future.result()

        assert metrics.counter("hits") == 2 * self.THREADS * self.ITERATIONS
        assert metrics.counter("bytes") == 8 * self.THREADS * self.ITERATIONS
        assert metrics.counter("pairs") == self.THREADS * self.ITERATIONS

    def test_concurrent_timed_blocks_accumulate_exactly(
        self, metrics: MetricsRegistry
    ):
        # ``timed`` must keep per-block state private (no shared stopwatch):
        # overlapping blocks on one registry would otherwise double-count
        # or lose time.  add_time feeds a known quantum alongside to check
        # the accumulated total is exact, not merely monotone.
        barrier = threading.Barrier(self.THREADS)

        def hammer() -> None:
            barrier.wait()
            for _ in range(200):
                with metrics.timed("ghfk"):
                    pass
                metrics.add_time("fixed", 0.25)

        with ThreadPoolExecutor(max_workers=self.THREADS) as pool:
            for future in [pool.submit(hammer) for _ in range(self.THREADS)]:
                future.result()

        assert metrics.timer("fixed") == 0.25 * 200 * self.THREADS
        assert metrics.timer("ghfk") >= 0.0

    def test_snapshot_under_concurrent_writes_is_consistent(
        self, metrics: MetricsRegistry
    ):
        # Writers bump their own counters while readers snapshot
        # mid-hammer; a snapshot must never observe a torn dict (the
        # pre-lock bug: RuntimeError from dict-changed-during-iteration).
        # Both sides are bounded by work, so the final counters are exact
        # and a traced run costs the same events every time; the barrier
        # starts them together, and untraced the writers' share of work
        # outlasts the readers'.
        writes = 10_000
        errors: list[BaseException] = []
        start = threading.Barrier(6)

        def writer(slot: int) -> None:
            start.wait()
            for _ in range(writes):
                metrics.increment(f"w{slot}")

        def reader() -> None:
            start.wait()
            try:
                for _ in range(2_000):
                    snap = metrics.snapshot()
                    metrics.as_dict()
                    for slot in range(4):
                        assert 0 <= snap.counter(f"w{slot}") <= writes
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        writers = [threading.Thread(target=writer, args=(slot,)) for slot in range(4)]
        readers = [threading.Thread(target=reader) for _ in range(2)]
        for thread in writers + readers:
            thread.start()
        for thread in writers + readers:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in writers + readers)
        assert errors == []
        assert metrics.snapshot().counters == {
            f"w{slot}": writes for slot in range(4)
        }
