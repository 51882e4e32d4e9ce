"""``QueryStats.events_decoded``: the events a query built from history
values before its window filter, pinned per model on one seeded ledger.

M1 decodes whole bundles, clipped or not; TQF and M2 decode every
non-delete entry they take, including the one past ``t_e`` that stops a
scan.  So ``events_decoded >= events_fetched`` always, with equality for
M1 when no planned interval is clipped by the window.  Each fetch ticks
the counter once, never once per event.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import pytest

from repro.common import metrics as metric_names
from repro.common.metrics import MetricsRegistry
from repro.temporal.engine import TemporalQueryEngine
from repro.temporal.intervals import TimeInterval
from repro.temporal.m1 import M1QueryEngine
from tests.temporal.test_paper_counters_pinned import LEDGERS, build_m2, build_plain, windows

WORKLOAD = LEDGERS["ds1-me"]
#: Cuts the first and last planned interval (``u = t_max / 15 = 200``).
CLIPPED = TimeInterval(WORKLOAD.t_max // 7, WORKLOAD.t_max // 2)

#: Per model, ``(events_decoded, events_fetched)`` over the three aligned
#: windows, then over :data:`CLIPPED`.
EXPECTED: Dict[str, List[Tuple[int, int]]] = {
    "tqf": [(394, 369), (688, 294), (1000, 337), (533, 353)],
    "m1": [(369, 369), (294, 294), (337, 337), (401, 353)],
    "m2": [(369, 369), (294, 294), (337, 337), (381, 353)],
}


class CountingRegistry(MetricsRegistry):
    """Counts the registry calls that tick ``query.events_decoded``."""

    def __init__(self) -> None:
        super().__init__()
        self.ticks = 0

    def increment(self, name: str, amount: int = 1) -> int:
        if name == metric_names.EVENTS_DECODED:
            self.ticks += 1
        return super().increment(name, amount)


@pytest.fixture(scope="module")
def ledgers(tmp_path_factory):
    path = tmp_path_factory.mktemp("ds1-me")
    plain, m2 = build_plain(path, WORKLOAD), build_m2(path, WORKLOAD)
    yield {"tqf": plain, "m1": plain, "m2": m2}
    plain.close()
    m2.close()


@pytest.mark.parametrize("model", sorted(EXPECTED))
def test_events_decoded_are_the_pinned_literals(ledgers, model):
    network = ledgers[model]
    registry = CountingRegistry()
    engine = TemporalQueryEngine(network.ledger, registry)
    measured = []
    for window in windows(WORKLOAD.t_max) + [CLIPPED]:
        stats = engine.run_join(model, window).stats
        assert stats.events_decoded >= stats.events_fetched
        measured.append((stats.events_decoded, stats.events_fetched))
        assert registry.snapshot().counter(metric_names.EVENTS_DECODED) == sum(
            decoded for decoded, _ in measured
        )
    assert measured == EXPECTED[model]
    # One tick per fetch: every key of every query, never one per event.
    assert registry.ticks == 4 * stats.keys_queried


def test_m1_decodes_what_it_fetches_unless_an_interval_is_clipped(ledgers):
    engine = M1QueryEngine(ledgers["m1"].ledger)
    for window, (decoded, fetched) in zip(windows(WORKLOAD.t_max), EXPECTED["m1"]):
        assert not any(planned.clipped for planned in engine.plan(window).intervals)
        assert decoded == fetched
    assert any(planned.clipped for planned in engine.plan(CLIPPED).intervals)
    decoded, fetched = EXPECTED["m1"][-1]
    assert decoded > fetched
