"""The unified temporal query facade and its instrumentation.

:class:`TemporalQueryEngine` runs the paper's join query Q on any of the
three models and returns the rows together with :class:`QueryStats` --
wall-clock join time, time spent inside GHFK iteration, and the
block/call counters the paper's analysis is phrased in.

Per-key event retrieval runs one key at a time on the calling thread,
in ``list_keys`` order -- the paper's setup.  A ledger and everything
under it is used from one thread (DESIGN.md §6); a query may still be
interleaved with commits on that thread.

A model that cannot answer -- an M1 window no indexing run covers,
corrupt index state, a block that fails its checksum -- raises its typed error
(:class:`~repro.common.errors.TemporalQueryError` or
:class:`~repro.common.errors.StorageError`); no model answers for another.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Protocol

from repro.common import metrics as metric_names
from repro.common.config import require_only
from repro.common.errors import TemporalQueryError
from repro.common.metrics import MetricsRegistry, collector_seconds
from repro.common.timeutils import Stopwatch
from repro.fabric.ledger import Ledger
from repro.temporal.events import Event
from repro.temporal.intervals import TimeInterval
from repro.temporal.join import JoinRow, temporal_join
from repro.temporal.m1 import M1QueryEngine
from repro.temporal.m2 import M2QueryEngine
from repro.temporal.tqf import TQFEngine


@dataclass(frozen=True)
class EntityNamespace:
    """Key prefixes of the supply-chain entities on the ledger."""

    shipment_prefix: str = "S"
    container_prefix: str = "C"
    truck_prefix: str = "T"


class QueryModel(Protocol):
    """What every query engine implements."""

    model: str

    def list_keys(self, prefix: str) -> List[str]: ...

    def plan(self, window: TimeInterval) -> object:
        """What the model resolves once per query, for every key's fetch."""
        ...

    def fetch_events(
        self, key: str, window: TimeInterval, plan: object = None
    ) -> List[Event]: ...


@dataclass
class QueryStats:
    """Per-query instrumentation (the columns of the paper's Table I)."""

    model: str
    window: TimeInterval
    join_seconds: float = 0.0
    ghfk_seconds: float = 0.0
    ghfk_calls: int = 0
    blocks_deserialized: int = 0
    block_bytes_read: int = 0
    get_state_calls: int = 0
    range_scan_calls: int = 0
    events_fetched: int = 0
    #: Events the fetches built from history values, before the window filter.
    events_decoded: int = 0
    keys_queried: int = 0
    #: Of ``join_seconds``, the garbage collector's passes (any
    #: generation) that ran inside the query.
    gc_seconds: float = 0.0


@dataclass
class JoinResult:
    """Join rows plus the instrumentation gathered while producing them."""

    rows: List[JoinRow]
    stats: QueryStats


class TemporalQueryEngine:
    """Facade running query Q over a chosen model's engine."""

    def __init__(
        self,
        ledger: Ledger,
        metrics: MetricsRegistry,
        namespace: EntityNamespace | None = None,
        workers: int = 1,
    ) -> None:
        # ``workers`` exists only because benchmarks/spine/harness.py
        # spells it; the ``benchmark`` PR that drops the kwarg deletes it.
        require_only(workers, 1, "TemporalQueryEngine.workers")
        self._ledger = ledger
        self._metrics = metrics
        self.namespace = namespace or EntityNamespace()
        self._engines: Dict[str, QueryModel] = {
            "tqf": TQFEngine(ledger, metrics=metrics),
            "m1": M1QueryEngine(ledger, metrics=metrics),
            "m2": M2QueryEngine(ledger, metrics=metrics),
        }

    def engine(self, model: str) -> QueryModel:
        """The per-model query engine (``tqf``, ``m1`` or ``m2``)."""
        try:
            return self._engines[model]
        except KeyError:
            raise TemporalQueryError(
                f"unknown model {model!r}; available: {sorted(self._engines)}"
            ) from None

    def fetch_window_events(
        self, model: str, window: TimeInterval
    ) -> tuple[Dict[str, List[Event]], Dict[str, List[Event]]]:
        """Per-key events inside ``window`` for all shipments and containers.

        The returned dicts are built in ``list_keys`` order.  The model's
        key-independent plan (M1: the run list and ``O(Θ, τ)``) is resolved
        once, after enumeration and only when there is a key to fetch, and
        handed to every per-key fetch.
        """
        engine = self.engine(model)
        shipment_keys = engine.list_keys(self.namespace.shipment_prefix)
        container_keys = engine.list_keys(self.namespace.container_prefix)
        plan = engine.plan(window) if shipment_keys or container_keys else None

        def fetch(keys: List[str]) -> Dict[str, List[Event]]:
            return {key: engine.fetch_events(key, window, plan) for key in keys}

        return fetch(shipment_keys), fetch(container_keys)

    def run_join(self, model: str, window: TimeInterval) -> JoinResult:
        """Run query Q on ``model`` over ``window``, fully instrumented.

        The measured region covers exactly what the paper measures: entity
        enumeration, event retrieval and the in-memory join.
        """
        before = self._metrics.snapshot()
        collector_before = collector_seconds()
        watch = Stopwatch().start()
        shipment_events, container_events = self.fetch_window_events(model, window)
        rows = temporal_join(shipment_events, container_events, window)
        join_seconds = watch.stop()
        gc_seconds = collector_seconds() - collector_before
        delta = self._metrics.snapshot().diff(before)

        stats = QueryStats(
            model=model,
            window=window,
            join_seconds=join_seconds,
            ghfk_seconds=delta.timer(metric_names.GHFK_SECONDS),
            ghfk_calls=delta.counter(metric_names.GHFK_CALLS),
            blocks_deserialized=delta.counter(metric_names.BLOCKS_DESERIALIZED),
            block_bytes_read=delta.counter(metric_names.BLOCK_BYTES_READ),
            get_state_calls=delta.counter(metric_names.GET_STATE_CALLS),
            range_scan_calls=delta.counter(metric_names.RANGE_SCAN_CALLS),
            events_fetched=sum(len(e) for e in shipment_events.values())
            + sum(len(e) for e in container_events.values()),
            events_decoded=delta.counter(metric_names.EVENTS_DECODED),
            keys_queried=len(shipment_events) + len(container_events),
            gc_seconds=gc_seconds,
        )
        return JoinResult(rows=rows, stats=stats)
