"""Model M1: periodic on-chain temporal indexes (Section VI).

The **indexing process** runs periodically.  For the range ``(t1, t2]``
since its last run it gathers, per key ``k`` and per index interval
``θ``, the event set ``EV(k, θ)``, and ingests it as one key-value pair
``⟨(k, θ), EV(k, θ)⟩`` followed by a second transaction deleting the pair
from state-db.  The bundle then lives only in history-db, retrievable with
a single block deserialization.

Index intervals are the paper's fixed-length-``u`` partition
(:class:`~repro.temporal.intervals.FixedIntervalScheme`), the same for
every key, so a query recomputes ``Θ(k)`` from the recorded run metadata
``(t1, t2, u)`` alone.

The **query engine** splits a query in two.  The key-independent half,
:meth:`M1QueryEngine.plan`, runs once per query: one read of the run
list, a check that the runs cover the whole window, and the overlapping
index intervals ``O(Θ, τ)`` in temporal order, each with the tail of its
composite key already spelled.  The per-key half,
:meth:`M1QueryEngine.fetch_events`, makes one history-db call that reads
the first history entry of each planned ``(k, θ)`` -- the bundle --
leaving the deletion marker's block untouched (GHFK laziness), with the
counters of one GHFK per interval.

**Coverage rule.**  ``M1Indexer.run`` forbids overlapping runs, not gaps:
the first run may start after ``t = 0`` and two runs may leave a stretch
between them.  Events there were never bundled, so a window touching a
stretch no recorded run covers is refused with a typed
:class:`~repro.common.errors.TemporalQueryError` naming it -- Model M1
never answers from half an index.

**One consistent run list per query.**  A plan is built from a single
``GetState`` and is valid for that query only; nothing is memoised on
the engine, by window or by ledger height -- a later run can fill a
stretch *inside* an earlier window, and ``commit_block`` bumps the height
before it applies state.  A query whose keys are fetched across a
``record_run`` commit therefore answers, for every key, from the run list as it stood either
before or after that commit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.common import metrics as metric_names
from repro.common.errors import IndexingError, TemporalQueryError
from repro.common.metrics import NULL_REGISTRY, MetricsRegistry
from repro.common.timeutils import Stopwatch
from repro.fabric.gateway import Gateway
from repro.fabric.ledger import Ledger
from repro.faults.crashpoints import (
    M1_MID_BUNDLE,
    M1_POST_KEY,
    M1_POST_RECORD_RUN,
    M1_PRE_BUNDLE,
    M1_PRE_RECORD_RUN,
    crash_point,
)
from repro.temporal.chaincodes import M1IndexChaincode
from repro.temporal.events import Event, events_from_values, events_to_values
from repro.temporal.intervals import FixedIntervalScheme, TimeInterval
from repro.temporal.keys import (
    BOUND_CAP,
    MAX_UNICODE_RUNE,
    decode_interval_key,
    encode_interval_key,
    interval_key_suffix,
    is_interval_key,
    validate_base_key,
)
from repro.temporal.tqf import TQFEngine


@dataclass(frozen=True)
class IndexingRun:
    """One invocation of the indexing process over ``(t1, t2]`` with
    fixed-length-``u`` index intervals."""

    t1: int
    t2: int
    u: int

    def to_value(self) -> Dict[str, object]:
        return {"t1": self.t1, "t2": self.t2, "u": self.u}

    @staticmethod
    def from_value(raw: Dict[str, object]) -> "IndexingRun":
        """Decode a stored run descriptor.

        Ledgers indexed by an older tree carry a ``scheme`` field:
        ``"fixed"`` is this format; ``"directory"`` runs kept their
        intervals in a per-key directory this tree no longer reads, and
        must fail loudly rather than be read as fixed-``u`` with ``u=0``.
        """
        scheme = raw.get("scheme", "fixed")
        if scheme != "fixed":
            raise IndexingError(
                f"indexing run ({raw.get('t1')}, {raw.get('t2')}] was written "
                f"with the removed {scheme!r} interval scheme (per-key "
                "interval directory); its bundles cannot be located. "
                "Re-ingest into a fresh ledger and re-index with "
                "M1Indexer.run"
            )
        return IndexingRun(
            t1=raw["t1"],  # type: ignore[arg-type]
            t2=raw["t2"],  # type: ignore[arg-type]
            u=raw["u"],  # type: ignore[arg-type]
        )

    @property
    def window(self) -> TimeInterval:
        return TimeInterval(self.t1, self.t2)


@dataclass
class IndexingReport:
    """What one indexing run did (feeds Table III)."""

    run: IndexingRun
    keys_scanned: int
    indexes_written: int
    events_bundled: int
    seconds: float


class M1Indexer:
    """Executes the Model M1 indexing process through real transactions.

    The indexer is a *client* of the network: it reads histories through
    GHFK (paying the full scan-from-zero cost the paper reports in
    Table III) and submits two transactions per non-empty bundle.
    """

    def __init__(
        self,
        ledger: Ledger,
        gateway: Gateway,
        key_prefixes: List[str],
        metrics: MetricsRegistry = NULL_REGISTRY,
    ) -> None:
        self._ledger = ledger
        self._gateway = gateway
        self._prefixes = list(key_prefixes)
        self._metrics = metrics
        self._scanner = TQFEngine(ledger, metrics=metrics)

    def run(self, t1: int, t2: int, u: int) -> IndexingReport:
        """Index ``(t1, t2]`` with the paper's fixed-length-``u`` strategy.

        Index intervals stay aligned to multiples of ``u``; when the run's
        bounds are not (Table III indexes every 25K timestamps with u=2K),
        the boundary intervals are clipped to the run so consecutive runs
        tile the timeline without overlap.

        The range must not overlap any previous run: overlapping runs
        would bundle the same events twice and queries would return
        duplicates.  Periodic indexing therefore always picks
        ``t1 = previous run's t2``.

        **Recovery is a rerun.**  A bundle depends only on ``(k, θ)``, and
        the ledger records which bundles and clears committed, so a run
        killed at any point is finished by calling ``run`` again, with
        the same ``u`` or another: bundles left in state-db are cleared,
        bundles already in history-db are not rewritten, and a run
        already recorded as exactly ``(t1, t2, u)`` returns at once with
        zero counts.
        """
        scheme = FixedIntervalScheme(u)
        if t2 <= t1:
            raise IndexingError(f"indexing range ({t1}, {t2}] is empty")
        if t2 >= BOUND_CAP:
            # Every bundle key spells its interval's end, which reaches t2.
            raise IndexingError(
                f"indexing range ({t1}, {t2}] ends past the key cap: index "
                f"interval bounds must be below {BOUND_CAP}"
            )
        run = IndexingRun(t1=t1, t2=t2, u=u)
        window = run.window
        watch = Stopwatch().start()

        for previous in M1QueryEngine(self._ledger).indexing_runs():
            if previous == run:
                # A rerun of a run that got as far as record_run.
                return IndexingReport(
                    run=run,
                    keys_scanned=0,
                    indexes_written=0,
                    events_bundled=0,
                    seconds=watch.stop(),
                )
            if previous.window.overlaps(window):
                raise IndexingError(
                    f"range {window} overlaps already-indexed run "
                    f"{previous.window}; events would be double-indexed"
                )

        for prefix in self._prefixes:
            self._clear_interrupted(prefix, window)
        intervals = scheme.partition_clipped(window)
        keys_scanned = 0
        indexes_written = 0
        events_bundled = 0
        for prefix in self._prefixes:
            for key in self._scanner.list_keys(prefix):
                keys_scanned += 1
                events = self._scanner.fetch_events(key, window)
                written, bundled = self._write_bundles(key, events, intervals)
                indexes_written += written
                events_bundled += bundled
                crash_point(M1_POST_KEY)

        crash_point(M1_PRE_RECORD_RUN)
        self._gateway.submit_transaction(
            M1IndexChaincode.name, "record_run", [run.to_value()]
        )
        self._gateway.flush()
        crash_point(M1_POST_RECORD_RUN)
        return IndexingReport(
            run=run,
            keys_scanned=keys_scanned,
            indexes_written=indexes_written,
            events_bundled=events_bundled,
            seconds=watch.stop(),
        )

    def _clear_interrupted(self, prefix: str, window: TimeInterval) -> None:
        """Submit ``clear_index`` for every bundle under ``prefix`` still in
        state-db that overlaps ``window``.

        No recorded run overlaps ``window``, so such a bundle was written
        by an interrupted run -- under this ``u`` or another -- whose
        ``clear_index`` never committed.
        """
        scan = self._ledger.state_db.keys_in_range(prefix, prefix + MAX_UNICODE_RUNE)
        # Listed before the first submit: a submit may commit a block.
        left = [key for key in scan if is_interval_key(key)]
        for index_key in left:
            _, interval = decode_interval_key(index_key)
            if interval.overlaps(window):
                self._gateway.submit_transaction(
                    M1IndexChaincode.name, "clear_index", [index_key],
                    timestamp=interval.end,
                )

    def _write_bundles(
        self,
        key: str,
        events: List[Event],
        intervals: List[TimeInterval],
    ) -> tuple[int, int]:
        """Submit the two indexing transactions per non-empty interval
        whose bundle is not yet in history-db.

        Returns the number of intervals holding bundles (pre-existing
        included) and the number of events newly bundled.
        """
        written = 0
        bundled = 0
        position = 0
        events = sorted(events)
        for interval in intervals:
            bundle: List[Event] = []
            while position < len(events) and events[position].time <= interval.end:
                bundle.append(events[position])
                position += 1
            if not bundle:
                continue  # pairs are ingested only if EV(k, θ) is non-empty
            written += 1
            index_key = encode_interval_key(key, interval)
            if self._ledger.history_db.locations_for_key(index_key):
                continue  # committed by an interrupted run
            crash_point(M1_PRE_BUNDLE)
            self._gateway.submit_transaction(
                M1IndexChaincode.name,
                "write_index",
                [index_key, events_to_values(bundle)],
                timestamp=interval.end,
            )
            bundled += len(bundle)
            crash_point(M1_MID_BUNDLE)
            self._gateway.submit_transaction(
                M1IndexChaincode.name, "clear_index", [index_key],
                timestamp=interval.end,
            )
        return written, bundled


@dataclass(frozen=True)
class PlannedInterval:
    """One member of ``O(Θ, τ)`` with what every key needs from it."""

    interval: TimeInterval
    #: ``encode_interval_key(k, interval)`` is ``k + key_suffix``.
    key_suffix: str
    #: τ cuts the interval: only then can its bundle hold an event outside
    #: τ, so only then is the bundle filtered through ``window.contains``.
    clipped: bool


@dataclass(frozen=True)
class M1QueryPlan:
    """The key-independent half of one M1 query over ``window``: the index
    intervals overlapping it, in temporal order.  Built by
    :meth:`M1QueryEngine.plan` from one read of the run list and valid for
    that query only -- a later indexing run can fill a stretch *inside* a
    window, so a plan is never kept across queries."""

    window: TimeInterval
    intervals: Tuple[PlannedInterval, ...]


def uncovered_stretches(
    runs: List[IndexingRun], window: TimeInterval
) -> List[TimeInterval]:
    """The parts of ``window`` no run in ``runs`` covers, in temporal order.

    ``M1Indexer.run`` forbids overlapping runs, not gaps between them or
    before the first, and Model M1 cannot see an event no run bundled.
    """
    gaps: List[TimeInterval] = []
    covered_to = window.start
    for run in sorted(runs, key=lambda run: run.t1):
        if run.t2 <= covered_to:
            continue
        if run.t1 >= window.end:
            break
        if run.t1 > covered_to:
            gaps.append(TimeInterval(covered_to, run.t1))
        covered_to = run.t2
    if covered_to < window.end:
        gaps.append(TimeInterval(covered_to, window.end))
    return gaps


class M1QueryEngine:
    """Temporal queries over Model M1 indexes.

    Stateless between calls: everything a query derives from the run list
    lives in the :class:`M1QueryPlan` of that query.
    """

    model = "m1"

    def __init__(
        self,
        ledger: Ledger,
        metrics: MetricsRegistry = NULL_REGISTRY,
    ) -> None:
        self._ledger = ledger
        self._metrics = metrics

    # -- index metadata ---------------------------------------------------

    def indexing_runs(self) -> List[IndexingRun]:
        """All recorded indexing runs, oldest first (one ``GetState``)."""
        raw = self._ledger.get_state(M1IndexChaincode.META_KEY) or []
        return [IndexingRun.from_value(item) for item in raw]

    # -- queries -------------------------------------------------------------

    def list_keys(self, prefix: str) -> List[str]:
        """Base entity keys (M1 leaves original state-db entries intact)."""
        scan = self._ledger.state_db.keys_in_range(prefix, prefix + MAX_UNICODE_RUNE)
        return [key for key in scan if not is_interval_key(key)]

    def plan(self, window: TimeInterval) -> M1QueryPlan:
        """Resolve ``O(Θ, τ)`` for ``window`` from one read of the run list.

        ``Θ(k)`` is the same for every key: per run, the u-aligned
        intervals clipped to the run's range -- exactly the keys the
        indexer could have written -- of which the plan keeps those
        overlapping ``window``, ordered by time across runs.  The one
        read is also the query's consistency point: a query held across
        a ``record_run`` commit answers from the run list as it stood
        before or after that commit, never a mix.

        Raises :class:`TemporalQueryError` naming the first stretch of
        ``window`` no recorded run covers (before the first run, between
        two runs, past the last): events there were never bundled and
        would be silently missing from the answer.
        """
        runs = sorted(self.indexing_runs(), key=lambda run: run.t1)
        gaps = uncovered_stretches(runs, window)
        if gaps:
            raise TemporalQueryError(
                f"window {window} extends beyond the indexed range: no "
                f"indexing run covers {gaps[0]}; run the M1 indexer over it "
                "first"
            )
        planned: List[PlannedInterval] = []
        for run in runs:
            overlap = run.window.intersection(window)
            if overlap is None:
                continue
            scheme = FixedIntervalScheme(run.u)
            for aligned in scheme.iter_intervals_overlapping(overlap):
                interval = TimeInterval(
                    max(aligned.start, run.t1), min(aligned.end, run.t2)
                )
                planned.append(
                    PlannedInterval(
                        interval=interval,
                        key_suffix=interval_key_suffix(interval.start, interval.end),
                        clipped=interval.start < window.start
                        or window.end < interval.end,
                    )
                )
        return M1QueryPlan(window=window, intervals=tuple(planned))

    def fetch_events(
        self, key: str, window: TimeInterval, plan: Optional[M1QueryPlan] = None
    ) -> List[Event]:
        """Events of ``key`` in ``window`` from index bundles.

        One history-db call reads each planned ``(k, θ)``'s oldest entry
        (its bundle, one block; never the deletion marker's block), counted
        as one GHFK per interval abandoned after one result.  ``plan`` is
        :meth:`plan` of the same ``window``, resolved once by a caller
        fetching many keys; without it the fetch resolves its own, and
        raises what :meth:`plan` raises.
        """
        if plan is None:
            plan = self.plan(window)
        elif plan.window != window:
            raise TemporalQueryError(
                f"plan resolved for {plan.window} cannot answer {window}"
            )
        validate_base_key(key)
        start, end = window.start, window.end
        intervals = plan.intervals
        events: List[Event] = []
        decoded = 0
        with self._metrics.timed(metric_names.GHFK_SECONDS):
            entries = self._ledger.oldest_history_entries(
                [key + planned.key_suffix for planned in intervals]
            )
            for planned, entry in zip(intervals, entries):
                if entry is not None and not entry.is_delete and entry.value:
                    bundle = events_from_values(key, entry.value)
                    decoded += len(bundle)
                    if planned.clipped:
                        bundle = [e for e in bundle if start < e.time <= end]
                    events.extend(bundle)
        self._metrics.increment(metric_names.EVENTS_DECODED, decoded)
        events.sort()
        return events
