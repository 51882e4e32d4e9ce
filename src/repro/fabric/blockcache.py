"""A thread-safe decoded-block LRU cache with single-flight loading.

Concurrent readers (queries racing each other or a commit) send GHFK
scans through one shared :class:`~repro.fabric.blockstore.BlockStore`.
Co-located keys live in the same blocks, so without coordination every
reader would deserialize the same block independently -- and a plain
``OrderedDict`` LRU is racy on top of that (``move_to_end`` on a
key concurrently evicted raises ``KeyError``; interleaved insert/evict
pairs can blow past the capacity).

:class:`BlockCache` fixes both:

* every cache operation -- lookup, recency bump, insert, eviction --
  happens under one lock, so the LRU structure can never be observed
  mid-mutation;
* a miss registers an in-flight marker before loading, and concurrent
  readers of the same key **wait for the first loader** instead of
  duplicating the deserialization (single-flight).  Each block is
  decoded at most once per residency, so concurrent readers never
  deserialize more blocks than one reader would.

Hits, misses and evictions are counted on the shared metrics registry
(``ledger.block_cache_*``); deserialization counters stay untouched on
the cached path so the paper's cost metric remains honest.
"""

from __future__ import annotations

from collections import OrderedDict
from concurrent.futures import Future
from typing import Callable, Dict, Hashable, Tuple

from repro.common import metrics as metric_names
from repro.common.errors import ConfigError
from repro.common.locks import make_lock
from repro.common.metrics import NULL_REGISTRY, MetricsRegistry
from repro.sanitizer.shared import sanitize_shared


@sanitize_shared("_entries", "_inflight")
class BlockCache:
    """Lock-guarded LRU over decoded blocks, shared across threads.

    Keys are opaque hashables: a :class:`~repro.fabric.blockstore.BlockStore`
    namespaces its entries with a per-store token so one process-wide
    cache instance can safely back several stores without block-number
    collisions.
    """

    def __init__(
        self,
        capacity: int,
        metrics: MetricsRegistry = NULL_REGISTRY,
    ) -> None:
        if capacity <= 0:
            raise ConfigError(
                f"block cache capacity must be positive, got {capacity}"
            )
        self.capacity = capacity
        self._metrics = metrics
        self._lock = make_lock("BlockCache._lock")
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._inflight: Dict[Hashable, "Future[object]"] = {}

    def get_or_load(
        self, key: Hashable, loader: Callable[[], object]
    ) -> object:
        """Return the cached value for ``key``, loading it at most once.

        On a hit the entry is bumped to most-recently-used and a cache
        hit is counted.  On a miss exactly one caller runs ``loader``
        (counted as a miss); concurrent callers for the same key block on
        the loader's future and count as hits -- they never paid a
        deserialization.  A loader exception propagates to every waiter
        and leaves the cache unchanged, so a bad block number fails
        identically with and without the cache.
        """
        future: "Future[object]"
        while True:
            with self._lock:
                if key in self._entries:
                    self._entries.move_to_end(key)
                    self._metrics.increment(metric_names.BLOCK_CACHE_HITS)
                    return self._entries[key]
                pending = self._inflight.get(key)
                if pending is None:
                    future = Future()
                    self._inflight[key] = future
                    break
            # Another thread is already deserializing this block: share
            # its result (or its exception) instead of duplicating work.
            value = pending.result()
            self._metrics.increment(metric_names.BLOCK_CACHE_HITS)
            return value

        self._metrics.increment(metric_names.BLOCK_CACHE_MISSES)
        try:
            value = loader()
        except BaseException as exc:
            with self._lock:
                del self._inflight[key]
            future.set_exception(exc)
            raise
        try:
            with self._lock:
                del self._inflight[key]
                self._entries[key] = value
                self._entries.move_to_end(key)
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
                    self._metrics.increment(metric_names.BLOCK_CACHE_EVICTIONS)
        finally:
            # The load succeeded: whatever happens while publishing it,
            # the waiters parked on the future get the value.  Resolved
            # anywhere else, a failure above would end this thread with
            # the future pending and every waiter blocked forever.
            future.set_result(value)
        return value

    def invalidate(self, key: Hashable) -> None:
        """Drop one entry (no-op when absent)."""
        with self._lock:
            self._entries.pop(key, None)

    def clear(self) -> None:
        """Drop every cached entry (in-flight loads are unaffected)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> Tuple[int, int]:
        """``(resident_entries, capacity)`` -- a consistent pair."""
        with self._lock:
            return len(self._entries), self.capacity
