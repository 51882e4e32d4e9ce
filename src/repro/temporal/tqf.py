"""TQF: the naive way to run temporal queries on Fabric (Section V).

For each entity key, TQF issues one full ``GetHistoryForKey`` call and
filters the returned states to the query window client-side.  Because the
history iterator is oldest-first and Fabric has no temporal index, fetching
events inside ``(t_s, t_e]`` forces deserialization of every block holding
the key's events in ``(0, t_e]`` -- the bottleneck both models attack.
"""

from __future__ import annotations

from typing import List

from repro.common import metrics as metric_names
from repro.common.metrics import NULL_REGISTRY, MetricsRegistry
from repro.fabric.ledger import Ledger
from repro.temporal.events import Event
from repro.temporal.intervals import TimeInterval
from repro.temporal.keys import MAX_UNICODE_RUNE, is_interval_key


class TQFEngine:
    """The baseline temporal query engine.

    Stateless between calls: ``fetch_events`` holds no per-engine mutable
    state.
    """

    #: Identifier used by the facade and benchmark tables.
    model = "tqf"

    def __init__(self, ledger: Ledger, metrics: MetricsRegistry = NULL_REGISTRY) -> None:
        self._ledger = ledger
        self._metrics = metrics

    def list_keys(self, prefix: str) -> List[str]:
        """All base entity keys starting with ``prefix`` (state-db range scan).

        This is the paper's first step: "retrieve the list of all shipments
        and containers using a range-scan query".
        """
        scan = self._ledger.state_db.keys_in_range(prefix, prefix + MAX_UNICODE_RUNE)
        return [key for key in scan if not is_interval_key(key)]

    def plan(self, window: TimeInterval) -> None:
        """TQF resolves nothing per query: a fetch is one GHFK of its key."""
        return None

    def fetch_events(
        self, key: str, window: TimeInterval, plan: None = None
    ) -> List[Event]:
        """Events of ``key`` inside ``window`` via one full GHFK scan.

        The iterator is abandoned as soon as a state past ``window.end``
        appears (histories are ingested in time order), so the cost is
        proportional to the key's blocks in ``(0, t_e]`` -- exactly the
        paper's cost model.
        """
        # Filter on the *event's own* timestamp, not the transaction's: an
        # ME batch stamps every event with the batch's newest time.  Per-key
        # event times are strictly increasing in history order (ingestion is
        # time-sorted), so stopping at the first too-late event is exact.
        start, end = window.start, window.end
        events: List[Event] = []
        decoded = 0
        with self._metrics.timed(metric_names.GHFK_SECONDS):
            for entry in self._ledger.get_history_for_key(key):
                if entry.is_delete:
                    continue
                event = Event.from_value(key, entry.value)
                decoded += 1
                if event.time > end:
                    break
                if event.time > start:
                    events.append(event)
        self._metrics.increment(metric_names.EVENTS_DECODED, decoded)
        return events
