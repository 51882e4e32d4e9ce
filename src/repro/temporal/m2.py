"""Model M2: interval-tagged keys, no separate indexing phase (Section VII).

Events were ingested by :class:`~repro.temporal.chaincodes.M2SupplyChainChaincode`
under transformed keys ``(k, θ)``, so the indexing information already
lives in state-db and history-db.  To answer a temporal query the engine:

1. range-scans state-db for key ``k``'s index intervals overlapping the
   query window ``τ``: the scan is ``[k\\x00, k\\x00<τ.end>)`` (``θ.start <
   τ.end`` bounds the zero-padded key itself) and intervals below ``τ`` are
   skipped on their spelled end field, undecoded,
2. issues one GHFK per overlapping ``(k, θ)``, which touches exactly the
   blocks holding ``k``'s events inside ``θ``,
3. filters the returned events to ``τ``.

The engine takes no ``u``: it *discovers* the occupied intervals rather
than computing a grid, and reads only keys off the scan.

Because the transformation breaks ordinary chaincode access to base keys,
:class:`BaseAccessAPI` emulates ``GetState(k)`` and ``GHFK(k)`` on top of
the transformed data (Section VII-B1), probing backwards from the current
index interval for the former and unioning all intervals for the latter.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Callable, Iterator, List, Optional, Tuple, TypeVar

from repro.common import metrics as metric_names
from repro.common.metrics import NULL_REGISTRY, MetricsRegistry
from repro.fabric.historydb import HistoryEntry
from repro.fabric.ledger import Ledger
from repro.temporal.events import Event
from repro.temporal.intervals import FixedIntervalScheme, TimeInterval
from repro.temporal.keys import (
    MAX_UNICODE_RUNE,
    RANGE_END,
    bound_field,
    decode_interval_key,
    interval_key_range,
    interval_key_suffix,
    validate_base_key,
)

#: What a point read hands back: a ``StateValue`` from the state-db, a
#: decoded value from a chaincode stub.
S = TypeVar("S")


class M2QueryEngine:
    """Temporal queries over Model M2's transformed ledger.

    Stateless between calls (like :class:`~repro.temporal.tqf.TQFEngine`):
    it holds no per-engine mutable state.
    """

    model = "m2"

    def __init__(self, ledger: Ledger, metrics: MetricsRegistry = NULL_REGISTRY) -> None:
        self._ledger = ledger
        self._metrics = metrics

    def list_keys(self, prefix: str) -> List[str]:
        """Distinct base keys under ``prefix``.

        State-db holds only transformed ``(k, θ)`` keys; they sort by base
        key first, so one keys-only range scan enumerates the entities.  A
        key is decoded once per base key: the rest of that key's states are
        ``[k\\x00, k\\x01)``, passed over with one bisect of the scanned list
        (in memory -- no further range call).
        """
        composites = self._ledger.state_db.keys_in_range(prefix, prefix + MAX_UNICODE_RUNE)
        keys: List[str] = []
        i, count = 0, len(composites)
        while i < count:
            base_key, _ = decode_interval_key(composites[i])
            keys.append(base_key)
            i = bisect_left(composites, base_key + RANGE_END, i + 1)
        return keys

    def overlapping_intervals(self, key: str, window: TimeInterval) -> List[TimeInterval]:
        """Occupied index intervals of ``key`` overlapping ``window``, in
        temporal order: what :meth:`fetch_events` visits and ``EXPLAIN``
        predicts."""
        return [
            decode_interval_key(composite)[1]
            for composite in self._overlapping_keys(key, window)
        ]

    def _overlapping_keys(self, key: str, window: TimeInterval) -> List[str]:
        """The ``(k, θ)`` keys of :meth:`overlapping_intervals`, as scanned.
        ``θ`` overlaps ``τ`` iff ``θ.start < τ.end``, which bounds the scan,
        and ``τ.start < θ.end``, tested on the spelled end field."""
        start, end = interval_key_range(key, before=window.end)
        floor = bound_field(window.start)
        cut = -len(floor)
        return [
            composite
            for composite in self._ledger.state_db.keys_in_range(start, end)
            if composite[cut:] > floor
        ]

    def plan(self, window: TimeInterval) -> None:
        """M2 resolves nothing per query: which ``θ`` a key occupies is that
        key's own state-db scan (:meth:`overlapping_intervals`)."""
        return None

    def fetch_events(
        self, key: str, window: TimeInterval, plan: None = None
    ) -> List[Event]:
        """Events of ``key`` in ``window`` via per-interval GHFK calls.

        Unlike Model M1, each GHFK may touch several blocks -- the events
        of ``(k, θ)`` are scattered exactly as the base data was -- but
        only blocks holding events *inside* ``θ``, never the ``(0, t_s]``
        prefix TQF pays for.
        """
        start, end = window.start, window.end
        events: List[Event] = []
        decoded = 0
        with self._metrics.timed(metric_names.GHFK_SECONDS):
            for composite in self._overlapping_keys(key, window):
                for entry in self._ledger.get_history_for_key(composite):
                    if entry.is_delete:
                        continue
                    # Filter on the event's own time (ME batches stamp every
                    # event with the batch's newest transaction time).
                    event = Event.from_value(key, entry.value)
                    decoded += 1
                    if event.time > end:
                        break
                    if event.time > start:
                        events.append(event)
        self._metrics.increment(metric_names.EVENTS_DECODED, decoded)
        events.sort()
        return events


@dataclass
class BaseAccessResult:
    """Result of a ``GetState-Base`` call: the value plus the number of
    underlying GetState probes it needed (Table IV's parenthesized counts)."""

    value: Any
    probes: int


def walk_back(
    get_state: Callable[[str], Optional[S]],
    scheme: FixedIntervalScheme,
    key: str,
    now: int,
) -> Tuple[Optional[S], int]:
    """GetState-Base's probe loop (Section VII-B1): ``get_state`` of ``(key,
    θ)`` for ``θ`` from the interval containing ``now`` back to ``(0, u]``,
    stopping at the first state found.  Returns that state (``None`` when
    every probe missed) and the number of probes.

    The one walk: :meth:`BaseAccessAPI.get_state_base` runs it on the
    state-db, the M2 chaincode on its stub (every probe enters the read
    set).  The base key is validated once; each probe's key is spelled
    from the interval's integer bounds.
    """
    validate_base_key(key)
    u = scheme.u
    first = scheme.bounds_for(now)[0]
    for start in range(first, -1, -u):
        state = get_state(key + interval_key_suffix(start, start + u))
        if state is not None:
            return state, (first - start) // u + 1
    return None, first // u + 1


class BaseAccessAPI:
    """Emulated base-data access on a Model M2 ledger (Section VII-B).

    Applications written against plain Fabric expect ``GetState(k)`` and
    ``GHFK(k)``; under Model M2 those keys do not exist.  This API
    implements the paper's second option: probe backwards from the current
    index interval until a state is found.
    """

    def __init__(
        self,
        ledger: Ledger,
        u: int,
        metrics: MetricsRegistry = NULL_REGISTRY,
    ) -> None:
        self._ledger = ledger
        self._scheme = FixedIntervalScheme(u)
        self._metrics = metrics

    def get_state_base(self, key: str, now: int) -> BaseAccessResult:
        """``GetState(k)`` emulation: the current state of ``(k, θ_max)``.

        Starting from the index interval containing ``now``, issue GetState
        on ``(k, θ)`` and step to the previous interval until a state is
        found (Section VII-B1's second option; :func:`walk_back`).
        """
        state, probes = walk_back(
            self._ledger.state_db.get_state, self._scheme, key, now
        )
        return BaseAccessResult(
            value=None if state is None else state.value, probes=probes
        )

    def ghfk_base(self, key: str, now: int) -> Iterator[HistoryEntry]:
        """``GHFK(k)`` emulation: union of GHFK over every index interval
        from ``(0, u]`` up to the one containing ``now``, oldest first."""
        validate_base_key(key)
        u = self._scheme.u
        end = self._scheme.bounds_for(now)[1]
        # Spell the last interval first: past the cap, fail before any GHFK
        # rather than after every interval below it.
        interval_key_suffix(end - u, end)
        history = self._ledger.get_history_for_key
        for start in range(0, end, u):
            yield from history(key + interval_key_suffix(start, start + u))
