"""Tests for the thread-safe shared block cache and concurrent GHFK.

The old in-store ``OrderedDict`` cache had three races concurrent
readers exposed: ``move_to_end`` on a concurrently-evicted key raising
``KeyError``, interleaved insert/evict pairs overshooting the capacity,
and duplicated deserializations when several readers missed on the same
block at once.  These tests pin the fixed semantics: exact hit/miss/
eviction accounting, capacity as a hard ceiling, and single-flight
loading (one loader call per key per residency, shared by all waiters).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import Future, ThreadPoolExecutor

import pytest

from repro.common import metrics as metric_names
from repro.common.errors import ConfigError
from repro.fabric.blockcache import BlockCache
from repro.fabric.blockstore import BlockStore
from repro.fabric.historydb import HistoryDB
from tests.fabric.test_blockstore_historydb import chain_blocks, make_tx


class TestLRUSemantics:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ConfigError):
            BlockCache(0)
        with pytest.raises(ConfigError):
            BlockCache(-3)

    def test_hit_miss_eviction_accounting(self, metrics):
        cache = BlockCache(2, metrics=metrics)
        loads: list[int] = []

        def loader(n: int):
            loads.append(n)
            return f"block-{n}"

        assert cache.get_or_load(0, lambda: loader(0)) == "block-0"
        assert cache.get_or_load(0, lambda: loader(0)) == "block-0"  # hit
        cache.get_or_load(1, lambda: loader(1))
        cache.get_or_load(2, lambda: loader(2))  # evicts 0 (LRU)
        cache.get_or_load(0, lambda: loader(0))  # miss again, evicts 1
        assert loads == [0, 1, 2, 0]
        assert metrics.counter(metric_names.BLOCK_CACHE_HITS) == 1
        assert metrics.counter(metric_names.BLOCK_CACHE_MISSES) == 4
        assert metrics.counter(metric_names.BLOCK_CACHE_EVICTIONS) == 2
        assert len(cache) == 2

    def test_recency_bump_on_hit(self, metrics):
        cache = BlockCache(2, metrics=metrics)
        cache.get_or_load("a", lambda: 1)
        cache.get_or_load("b", lambda: 2)
        cache.get_or_load("a", lambda: 1)  # bump: "b" is now LRU
        cache.get_or_load("c", lambda: 3)  # evicts "b", not "a"
        assert cache.get_or_load("a", lambda: pytest.fail("a was evicted")) == 1

    def test_loader_exception_leaves_cache_unchanged(self, metrics):
        cache = BlockCache(4, metrics=metrics)

        def boom():
            raise ValueError("bad block")

        with pytest.raises(ValueError):
            cache.get_or_load("k", boom)
        assert len(cache) == 0
        # The key is loadable again afterwards (no poisoned entry).
        assert cache.get_or_load("k", lambda: "ok") == "ok"

    def test_invalidate_and_clear(self, metrics):
        cache = BlockCache(4, metrics=metrics)
        cache.get_or_load("a", lambda: 1)
        cache.get_or_load("b", lambda: 2)
        cache.invalidate("a")
        cache.invalidate("missing")  # no-op
        assert len(cache) == 1
        cache.clear()
        assert cache.stats() == (0, 4)


class TestSingleFlight:
    def test_concurrent_misses_share_one_load(self, metrics):
        cache = BlockCache(8, metrics=metrics)
        threads = 8
        barrier = threading.Barrier(threads)
        release = threading.Event()
        load_calls: list[int] = []
        load_lock = threading.Lock()

        def slow_loader():
            with load_lock:
                load_calls.append(1)
            # Hold the load open until the main thread releases it, so the
            # other workers demonstrably arrive *during* the deserialization.
            release.wait(timeout=5)
            return "decoded"

        def worker():
            barrier.wait(timeout=5)
            return cache.get_or_load("blk", slow_loader)

        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(worker) for _ in range(threads)]
            while not load_calls:  # first worker is inside the loader
                pass
            release.set()
            results = [future.result(timeout=10) for future in futures]

        assert results == ["decoded"] * threads
        assert sum(load_calls) == 1, "loader must run exactly once"
        assert metrics.counter(metric_names.BLOCK_CACHE_MISSES) == 1
        assert metrics.counter(metric_names.BLOCK_CACHE_HITS) == threads - 1

    def test_loader_exception_propagates_to_all_waiters(self, metrics):
        cache = BlockCache(8, metrics=metrics)
        threads = 4
        gate = threading.Event()

        def failing_loader():
            gate.wait(timeout=5)
            raise RuntimeError("decode failed")

        def worker():
            with pytest.raises(RuntimeError):
                cache.get_or_load("blk", failing_loader)
            return True

        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(worker) for _ in range(threads)]
            gate.set()
            assert all(future.result(timeout=10) for future in futures)
        assert len(cache) == 0

    def test_failure_while_publishing_still_releases_the_waiters(
        self, metrics, monkeypatch
    ):
        """The loader thread dying after a successful load must not strand
        the threads parked on its future (the tier-1 hang: a mutant that
        evicts without the lock made ``move_to_end`` raise here)."""
        parked = threading.Event()
        release = threading.Event()

        class SignallingFuture(Future):
            def result(self, timeout=None):
                parked.set()
                return super().result(timeout)

        class Vanishing(OrderedDict):
            def move_to_end(self, key, last=True):
                raise KeyError(key)

        monkeypatch.setattr("repro.fabric.blockcache.Future", SignallingFuture)
        cache = BlockCache(8, metrics=metrics)
        cache._entries = Vanishing()

        def slow_loader():
            release.wait(timeout=5)
            return "decoded"

        outcomes = {}

        def call(name):
            try:
                outcomes[name] = cache.get_or_load("blk", slow_loader)
            except KeyError as exc:
                outcomes[name] = exc

        # Daemon threads: at a commit without the fix the waiter never
        # returns, and the test must fail on the join, not hang on it.
        loader = threading.Thread(target=call, args=("loader",), daemon=True)
        waiter = threading.Thread(target=call, args=("waiter",), daemon=True)
        loader.start()
        def load_started():
            with cache._lock:  # ``_inflight`` is guarded by the cache lock
                return "blk" in cache._inflight

        while not load_started():
            pass  # the first caller owns the load
        waiter.start()
        assert parked.wait(timeout=5)
        release.set()
        for thread in (loader, waiter):
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert outcomes["waiter"] == "decoded"
        assert isinstance(outcomes["loader"], KeyError)
        assert cache._inflight == {}

    def test_concurrent_distinct_keys_respect_capacity(self, metrics):
        cache = BlockCache(4, metrics=metrics)
        barrier = threading.Barrier(8)

        def worker(slot: int):
            barrier.wait()
            for n in range(50):
                key = (slot * 50 + n) % 20
                value = cache.get_or_load(key, lambda k=key: f"v{k}")
                assert value == f"v{key}"
            return len(cache)

        with ThreadPoolExecutor(max_workers=8) as pool:
            sizes = [f.result() for f in [pool.submit(worker, s) for s in range(8)]]
        # Capacity is a hard ceiling at every observation point.
        assert all(size <= 4 for size in sizes)
        assert len(cache) <= 4


class TestSharedCacheAcrossStores:
    def test_store_namespacing_prevents_block_number_collisions(
        self, tmp_path, metrics
    ):
        """Two stores share one cache; block 0 of each must not alias."""
        cache = BlockCache(16, metrics=metrics)
        store_a = BlockStore(tmp_path / "a", metrics=metrics, cache=cache)
        store_b = BlockStore(tmp_path / "b", metrics=metrics, cache=cache)
        try:
            store_a.add_block(chain_blocks([[make_tx("a0", {"k": "va"})]])[0])
            store_b.add_block(chain_blocks([[make_tx("b0", {"k": "vb"})]])[0])
            assert store_a.get_block(0).transactions[0].tx_id == "a0"
            assert store_b.get_block(0).transactions[0].tx_id == "b0"
            # Both entries are resident: same number, different namespaces.
            assert len(cache) == 2
        finally:
            store_a.close()
            store_b.close()


class TestConcurrentGHFK:
    def test_parallel_history_scans_shared_store(self, tmp_path, metrics):
        """Many threads GHFK-scan overlapping keys through one cached store;
        every scan sees the full, ordered history and each block is
        deserialized at most once."""
        keys = [f"k{i}" for i in range(4)]
        writes_per_key = 12
        groups = []
        for step in range(writes_per_key):
            groups.append(
                [make_tx(f"t{step}-{key}", {key: step}, timestamp=step)
                 for key in keys]
            )
        blocks = chain_blocks(groups)

        store = BlockStore(tmp_path, metrics=metrics, cache_blocks=64)
        history = HistoryDB(metrics=metrics)
        try:
            for block in blocks:
                store.add_block(block)
                history.index_block(block)

            barrier = threading.Barrier(8)

            def scan(slot: int):
                barrier.wait()
                key = keys[slot % len(keys)]
                entries = list(history.get_history_for_key(key, store))
                assert [e.value for e in entries] == list(range(writes_per_key))
                assert [e.timestamp for e in entries] == sorted(
                    e.timestamp for e in entries
                )
                return key

            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(scan, slot) for slot in range(8)]
                for future in futures:
                    future.result(timeout=30)

            # Single-flight + cache: 12 blocks decoded at most once each,
            # even with 8 scans racing over them.
            assert (
                metrics.counter(metric_names.BLOCKS_DESERIALIZED)
                <= len(blocks)
            )
        finally:
            store.close()

    def test_scan_survives_concurrent_commits(self, tmp_path, metrics):
        """A commit appending locations mid-scan must not corrupt the scan
        (the pre-lock bug: list mutation during iteration)."""
        store = BlockStore(tmp_path, metrics=metrics, cache_blocks=64)
        history = HistoryDB(metrics=metrics)
        groups = [[make_tx(f"t{i}", {"k": i}, timestamp=i)] for i in range(40)]
        blocks = chain_blocks(groups)
        try:
            for block in blocks[:20]:
                store.add_block(block)
                history.index_block(block)

            stop = threading.Event()
            errors: list[BaseException] = []

            def committer():
                for block in blocks[20:]:
                    store.add_block(block)
                    history.index_block(block)
                stop.set()

            def scanner():
                try:
                    while not stop.is_set():
                        values = [
                            e.value
                            for e in history.get_history_for_key("k", store)
                        ]
                        # Prefix property: a snapshot is always a clean,
                        # gap-free prefix of the final history.
                        assert values == list(range(len(values)))
                        assert len(values) >= 20
                except BaseException as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=scanner) for _ in range(4)]
            commit_thread = threading.Thread(target=committer)
            for thread in threads:
                thread.start()
            commit_thread.start()
            commit_thread.join()
            for thread in threads:
                thread.join()
            assert errors == []
        finally:
            store.close()
