"""The unified temporal query facade and its instrumentation.

:class:`TemporalQueryEngine` runs the paper's join query Q on any of the
three models and returns the rows together with :class:`QueryStats` --
wall-clock join time, time spent inside GHFK iteration, and the
block/call counters the paper's analysis is phrased in.

Per-key event retrieval runs one key at a time on the calling thread,
in ``list_keys`` order -- the paper's setup.  Every shared structure
underneath (metrics registry, block cache, history index) is
lock-guarded, because a query may race a commit on another thread.

Resilience (opt-in, never changing default semantics):

* ``run_join(..., deadline=...)`` threads a
  :class:`~repro.common.resilience.Deadline` through the per-key loop, so
  a query abandons its remaining per-key fetches once the budget dies
  instead of draining them all.
* ``run_join(..., degrade=True)`` turns index-probe failures on M1/M2
  (corrupt index state, quarantined SSTable, window beyond the indexed
  range) into a *degraded* answer: the query falls back to a TQF chain
  scan -- always correct, since TQF reads only the block chain -- and
  the result carries a typed :class:`DegradedResult` marker instead of
  silently pretending the index answered.  A per-index-model
  :class:`~repro.common.resilience.CircuitBreaker` stops hammering an
  index that keeps failing; while the breaker is open, queries skip the
  probe entirely and degrade immediately.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol

from repro.common import metrics as metric_names
from repro.common.config import require_only
from repro.common.errors import StorageError, TemporalQueryError
from repro.common.metrics import MetricsRegistry
from repro.common.resilience import CircuitBreaker, Deadline
from repro.common.timeutils import Stopwatch
from repro.fabric.ledger import Ledger
from repro.temporal.events import Event
from repro.temporal.intervals import TimeInterval
from repro.temporal.join import JoinRow, temporal_join
from repro.temporal.m1 import M1QueryEngine
from repro.temporal.m2 import M2QueryEngine
from repro.temporal.tqf import TQFEngine

#: The model every degraded query falls back to.  TQF derives answers
#: from the block chain alone -- no auxiliary index to be corrupt -- so
#: it stays correct whenever the ledger itself is intact.
FALLBACK_MODEL = "tqf"


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


@dataclass(frozen=True)
class DegradedResult:
    """Typed marker: the query answered, but not on the requested model.

    Attached to :class:`JoinResult` when ``degrade=True`` rescued an
    index failure.  Rows are still correct -- they came from the
    fallback chain scan -- but slower, and callers that care can tell a
    degraded answer from a healthy one.
    """

    requested_model: str
    fallback_model: str
    #: Human-readable cause (breaker open, index probe error message).
    reason: str
    #: Class name of the triggering exception, or ``"CircuitOpenError"``
    #: when the probe was skipped because the breaker was already open.
    error_type: str


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
    block_cache_hits: int = 0
    block_cache_misses: int = 0
    get_state_calls: int = 0
    range_scan_calls: int = 0
    events_fetched: int = 0
    keys_queried: int = 0

    def as_row(self) -> Dict[str, object]:
        """Flatten for table rendering."""
        return {
            "model": self.model,
            "window": str(self.window),
            "join_s": round(self.join_seconds, 4),
            "ghfk_s": round(self.ghfk_seconds, 4),
            "ghfk_calls": self.ghfk_calls,
            "blocks": self.blocks_deserialized,
            "events": self.events_fetched,
        }


@dataclass
class JoinResult:
    """Join rows plus the instrumentation gathered while producing them."""

    rows: List[JoinRow]
    stats: QueryStats
    shipment_events: Dict[str, List[Event]] = field(default_factory=dict)
    container_events: Dict[str, List[Event]] = field(default_factory=dict)
    #: Set when the query fell back to TQF after an index failure
    #: (``stats.model`` then names the model that actually executed).
    degraded: Optional[DegradedResult] = None


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
        #: Per-index-model circuit breakers consulted by degraded-mode
        #: queries.  TQF has none: it is the fallback, not a probe.
        self.breakers: Dict[str, CircuitBreaker] = {
            model: CircuitBreaker(name=f"index:{model}")
            for model in self._engines
            if model != FALLBACK_MODEL
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
        self,
        model: str,
        window: TimeInterval,
        deadline: Optional[Deadline] = None,
    ) -> tuple[Dict[str, List[Event]], Dict[str, List[Event]]]:
        """Per-key events inside ``window`` for all shipments and containers.

        The returned dicts are built in ``list_keys`` order.  The model's
        key-independent plan (M1: the run list and ``O(Θ, τ)``) is resolved
        once, after enumeration and only when there is a key to fetch, and
        handed to every per-key fetch.  With a ``deadline``, the budget is
        checked before every key: remaining fetches are abandoned once it
        expires and :class:`~repro.common.errors.DeadlineExceededError`
        propagates.
        """
        engine = self.engine(model)
        if deadline is not None:
            deadline.check("entity enumeration")
        shipment_keys = engine.list_keys(self.namespace.shipment_prefix)
        container_keys = engine.list_keys(self.namespace.container_prefix)
        plan = engine.plan(window) if shipment_keys or container_keys else None

        def fetch(keys: List[str]) -> Dict[str, List[Event]]:
            events: Dict[str, List[Event]] = {}
            for key in keys:
                if deadline is not None:
                    deadline.check("per-key fetch")
                events[key] = engine.fetch_events(key, window, plan)
            return events

        return fetch(shipment_keys), fetch(container_keys)

    def run_join(
        self,
        model: str,
        window: TimeInterval,
        keep_events: bool = False,
        deadline: Optional[Deadline] = None,
        degrade: bool = False,
    ) -> JoinResult:
        """Run query Q on ``model`` over ``window``, fully instrumented.

        The measured region covers exactly what the paper measures: entity
        enumeration, event retrieval and the in-memory join.

        With ``degrade=True``, an index-probe failure on M1/M2 (typed
        :class:`~repro.common.errors.TemporalQueryError` or
        :class:`~repro.common.errors.StorageError`) re-runs the query on
        TQF and tags the result with :class:`DegradedResult` instead of
        raising; repeated failures trip the model's circuit breaker so
        later queries skip the doomed probe.  Deadline expiry and
        injected-fault sentinels are *never* treated as index failures
        -- they propagate regardless of ``degrade``.
        """
        requested = model
        degraded: Optional[DegradedResult] = None
        breaker = self.breakers.get(model)

        if degrade and breaker is not None and not breaker.allow():
            degraded = DegradedResult(
                requested_model=requested,
                fallback_model=FALLBACK_MODEL,
                reason=f"circuit breaker for {requested!r} is open",
                error_type="CircuitOpenError",
            )
            model = FALLBACK_MODEL

        before = self._metrics.snapshot()
        watch = Stopwatch().start()
        if degraded is None and degrade and breaker is not None:
            try:
                shipment_events, container_events = self.fetch_window_events(
                    model, window, deadline=deadline
                )
            except (TemporalQueryError, StorageError) as exc:
                # An index that cannot answer.  Record the failure (the
                # breaker may trip), then answer from the chain instead.
                # DeadlineExceededError and the fault harness's crash
                # sentinel are not StorageErrors and propagate above.
                breaker.record_failure()
                degraded = DegradedResult(
                    requested_model=requested,
                    fallback_model=FALLBACK_MODEL,
                    reason=str(exc),
                    error_type=type(exc).__name__,
                )
                model = FALLBACK_MODEL
                shipment_events, container_events = self.fetch_window_events(
                    model, window, deadline=deadline
                )
            else:
                breaker.record_success()
        else:
            shipment_events, container_events = self.fetch_window_events(
                model, window, deadline=deadline
            )
        rows = temporal_join(shipment_events, container_events, window)
        join_seconds = watch.stop()
        delta = self._metrics.snapshot().diff(before)

        stats = QueryStats(
            model=model,
            window=window,
            join_seconds=join_seconds,
            ghfk_seconds=delta.timer(metric_names.GHFK_SECONDS),
            ghfk_calls=delta.counter(metric_names.GHFK_CALLS),
            blocks_deserialized=delta.counter(metric_names.BLOCKS_DESERIALIZED),
            block_bytes_read=delta.counter(metric_names.BLOCK_BYTES_READ),
            block_cache_hits=delta.counter(metric_names.BLOCK_CACHE_HITS),
            block_cache_misses=delta.counter(metric_names.BLOCK_CACHE_MISSES),
            get_state_calls=delta.counter(metric_names.GET_STATE_CALLS),
            range_scan_calls=delta.counter(metric_names.RANGE_SCAN_CALLS),
            events_fetched=sum(len(e) for e in shipment_events.values())
            + sum(len(e) for e in container_events.values()),
            keys_queried=len(shipment_events) + len(container_events),
        )
        return JoinResult(
            rows=rows,
            stats=stats,
            shipment_events=shipment_events if keep_events else {},
            container_events=container_events if keep_events else {},
            degraded=degraded,
        )
