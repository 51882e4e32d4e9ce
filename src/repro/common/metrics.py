"""Counters and timers used to instrument the ledger simulator.

The paper's analysis hinges on *how many blocks each approach deserializes*
and *how many GHFK / GetState calls it makes*.  Wall-clock numbers on our
hardware will not match a 2017 ThinkPad, but these counters let every
benchmark verify the paper's block-level arguments exactly (e.g. "Model M1
makes 2500 GHFK calls but each call deserializes only one block").

A :class:`MetricsRegistry` is passed through the storage and fabric
layers.  Components increment named counters; benchmarks snapshot and diff
them around each measured region.  Like the ledger it instruments, a
registry is used from one thread (DESIGN.md §6).
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

from repro.common import timeutils

# Canonical metric names.  Keeping them in one place avoids typo'd strings
# silently creating new counters.
BLOCKS_DESERIALIZED = "ledger.blocks_deserialized"
BLOCK_BYTES_READ = "ledger.block_bytes_read"
BLOCKS_COMMITTED = "ledger.blocks_committed"
TXS_COMMITTED = "ledger.txs_committed"
TXS_INVALIDATED = "ledger.txs_invalidated"
GHFK_CALLS = "query.ghfk_calls"
GHFK_RESULTS = "query.ghfk_results"
GET_STATE_CALLS = "query.get_state_calls"
RANGE_SCAN_CALLS = "query.range_scan_calls"
#: Events a query's fetches built from history values, before the window
#: filter: one tick per ``fetch_events``.
EVENTS_DECODED = "query.events_decoded"
KV_READS = "kv.reads"
KV_WRITES = "kv.writes"
KV_SSTABLE_READS = "kv.sstable_reads"
KV_BLOOM_NEGATIVES = "kv.bloom_negatives"
KV_COMPACTIONS = "kv.compactions"
WAL_RECORDS = "kv.wal_records"
STATE_TABLES_QUARANTINED = "kv.tables_quarantined"
#: Transactions actually decoded out of block payloads (a block read is
#: lazy: ``txs_decoded / ghfk_results`` is the decode work per result).
#: One tick per transaction first decoded, whether a GHFK result read its
#: head segment (ticked with the result, before it is handed out) or
#: ``block.transactions[i]`` built a ``Transaction``; the
#: lazy block memoises decoded segments, so a transaction of a cached
#: block is counted once however many readers use it.  The history-index
#: walk (``Block.history_keys``, at commit, on reopen and in an audit
#: rebuild) builds and memoises no transaction and ticks nothing: a
#: reopen that replays no block counts zero.
TXS_DECODED = "ledger.txs_decoded"

GHFK_SECONDS = "query.ghfk_seconds"
COMMIT_SECONDS = "ledger.commit_seconds"


@dataclass
class MetricsSnapshot:
    """An immutable point-in-time copy of a registry's values."""

    counters: Mapping[str, int]
    timers: Mapping[str, float]

    def counter(self, name: str) -> int:
        return self.counters.get(name, 0)

    def timer(self, name: str) -> float:
        return self.timers.get(name, 0.0)

    def diff(self, earlier: "MetricsSnapshot") -> "MetricsSnapshot":
        """Return this snapshot minus an earlier one (per-region deltas)."""
        names = set(self.counters) | set(earlier.counters)
        timer_names = set(self.timers) | set(earlier.timers)
        return MetricsSnapshot(
            counters={
                name: self.counters.get(name, 0) - earlier.counters.get(name, 0)
                for name in names
            },
            timers={
                name: self.timers.get(name, 0.0) - earlier.timers.get(name, 0.0)
                for name in timer_names
            },
        )


class MetricsRegistry:
    """A mutable bag of named counters and accumulated timers.

    The registry is deliberately simple -- integer counters and float
    second-accumulators in two dicts -- because it sits on hot paths
    (every block read bumps a counter).
    """

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}
        self._timers: Dict[str, float] = {}

    def increment(self, name: str, amount: int = 1) -> int:
        """Add ``amount`` to counter ``name`` and return the new value."""
        value = self._counters.get(name, 0) + amount
        self._counters[name] = value
        return value

    def increment_many(self, *pairs: Tuple[str, int]) -> None:
        """Add each ``(name, amount)`` of ``pairs``: one :meth:`increment`
        per pair in one call.  A block read and a GHFK result each bump
        two counters, once per block and once per result, so they pay
        for one call."""
        counters = self._counters
        for name, amount in pairs:
            counters[name] = counters.get(name, 0) + amount

    def timed(self, name: str) -> Timed:
        """Context manager accumulating wall time into timer ``name``.

        Each ``timed`` block owns its start time, so nested blocks timing
        the same name each add their own time.
        """
        return Timed(self._timers, name)

    def snapshot(self) -> MetricsSnapshot:
        """A copy of every counter and timer."""
        return MetricsSnapshot(
            counters=dict(self._counters), timers=dict(self._timers)
        )


class Timed:
    """A ``timed`` block: the clock, read through :mod:`timeutils` on entry
    and exit, adds the difference to ``timers[name]``, on an exception too.
    Every engine enters one per key and the commit path one per block."""

    __slots__ = ("_timers", "_name", "_started")

    def __init__(self, timers: Dict[str, float], name: str) -> None:
        self._timers = timers
        self._name = name

    def __enter__(self) -> None:
        self._started = timeutils.time.perf_counter()

    def __exit__(self, *exc_info: object) -> None:
        elapsed = timeutils.time.perf_counter() - self._started
        self._timers[self._name] = self._timers.get(self._name, 0.0) + elapsed


class _NullMetricsRegistry(MetricsRegistry):
    """A write-discarding registry for callers that pass no registry.

    The old default was a plain shared :class:`MetricsRegistry`: a
    process-global accumulator nobody ever read, whose counters bled
    across tests.  A null sink has no mutable traffic at all: increments
    return their would-be values and drop them, a timed block adds to a
    dict nobody reads, reads always see zero.
    """

    def increment(self, name: str, amount: int = 1) -> int:
        """Discard the increment; pretend the counter started at zero."""
        return amount

    def increment_many(self, *pairs: Tuple[str, int]) -> None:
        """Discard the increments."""

    def timed(self, name: str) -> Timed:
        """A block timed into a dict nobody reads."""
        return Timed({}, name)


#: A registry used when callers do not supply one; keeps call sites simple
#: without making instrumentation globally stateful (each component can
#: still be given its own registry).  A discarding sink: see
#: :class:`_NullMetricsRegistry`.
NULL_REGISTRY = _NullMetricsRegistry()


class _CollectorClock:
    """A ``gc.callbacks`` hook summing the wall time of the collector's
    passes.  It only reads: the collection schedule stays the interpreter's."""

    seconds = 0.0
    _started = 0.0

    def __call__(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._started


_COLLECTOR_CLOCK = _CollectorClock()


def collector_seconds() -> float:
    """Seconds spent in garbage collection since the first call, which
    installs the one process-wide hook: the difference of two calls is the
    collector's pause between them."""
    if _COLLECTOR_CLOCK not in gc.callbacks:
        gc.callbacks.append(_COLLECTOR_CLOCK)
    return _COLLECTOR_CLOCK.seconds
