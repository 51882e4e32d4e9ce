"""Property test: M2's window-bounded ``(k, θ)`` scan against filter-all.

``M2QueryEngine`` lists ``k``'s index intervals overlapping ``τ`` by
scanning ``[k\\x00, k\\x00<τ.end>)`` and skipping on the spelled end field.
The reference here is what the engine did before: scan *every* interval
key of ``k``, decode each, keep those that overlap.  For random ``u``,
event times and windows -- unaligned, starting at 0, beyond the last
event, inside gaps between occupied intervals -- and base keys where one
is a prefix of another, both must visit the same intervals, spend the
same GHFK calls and return the events an in-memory filter of the input
returns.  Run over the in-memory backend and over an LSM store whose
memtable holds 8 entries, so one key's range crosses several SSTables
(the heap merge) as well as one (the single-source scan).
"""

from __future__ import annotations

import tempfile
from contextlib import closing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import metrics as metric_names
from repro.common.config import BlockCuttingConfig, FabricConfig, StateDbConfig
from repro.fabric.network import FabricNetwork
from repro.temporal.chaincodes import M2SupplyChainChaincode
from repro.temporal.events import LOAD, UNLOAD, Event
from repro.temporal.intervals import TimeInterval
from repro.temporal.keys import decode_interval_key, interval_key_range
from repro.temporal.m2 import M2QueryEngine
from repro.workload.ingest import ingest

#: ``S1`` is a prefix of ``S10`` and of ``S1é``: ``[S1\x00, S1\x00…)`` must
#: not leak into either neighbour.
KEYS = ("S1", "S10", "S1é", "C1")
T_LAST = 120


@st.composite
def scenarios(draw):
    u = draw(st.integers(min_value=1, max_value=30))
    events = []
    for key in KEYS:
        times = draw(
            st.sets(st.integers(min_value=1, max_value=T_LAST), min_size=2, max_size=10)
        )
        events += [
            Event(time=time, key=key, other="X", kind=(LOAD, UNLOAD)[index % 2])
            for index, time in enumerate(sorted(times))
        ]
    starts = st.integers(min_value=0, max_value=T_LAST + 2 * u)
    lengths = st.integers(min_value=1, max_value=3 * u + 5)
    windows = [
        TimeInterval(start, start + length)
        for start, length in draw(
            st.lists(st.tuples(starts, lengths), min_size=4, max_size=8)
        )
    ]
    windows.append(TimeInterval(0, draw(lengths)))  # start = 0
    windows.append(TimeInterval(T_LAST + u, T_LAST + 2 * u))  # past every event
    windows.append(TimeInterval(0, T_LAST + u))  # everything
    return u, sorted(events), windows


def filter_all(ledger, key, window):
    """The unbounded reference: every interval key of ``key``, decoded,
    kept when it overlaps."""
    start, end = interval_key_range(key)
    intervals = [
        decode_interval_key(composite)[1]
        for composite, _ in ledger.state_db.get_state_by_range(start, end)
    ]
    return [interval for interval in intervals if interval.overlaps(window)]


@pytest.mark.parametrize("backend", ["memory", "lsm"])
def test_bounded_scan_equals_filter_all(backend):
    config = FabricConfig(
        block_cutting=BlockCuttingConfig(max_message_count=4),
        state_db=StateDbConfig(backend=backend, memtable_limit=8),
    )
    tables = []  # per example: SSTables under the state-db

    @settings(max_examples=40)
    @given(scenarios())
    def check(scenario):
        u, events, windows = scenario
        with tempfile.TemporaryDirectory() as scratch, closing(FabricNetwork(
            scratch, config=config
        )) as network:
            network.install(M2SupplyChainChaincode(u=u))
            ingest(
                network.gateway("ingestor"), events,
                M2SupplyChainChaincode.name, strategy="se",
            )
            store = network.ledger.state_db._store  # non-vacuity check only
            tables.append(getattr(store, "sstable_count", 0))
            engine = M2QueryEngine(network.ledger, metrics=network.metrics)
            present = sorted({event.key for event in events})
            assert engine.list_keys("S") == [key for key in present if key[0] == "S"]
            for window in windows:
                for key in KEYS:
                    reference = filter_all(network.ledger, key, window)
                    assert engine.overlapping_intervals(key, window) == reference
                    before = network.metrics.snapshot().counter(metric_names.GHFK_CALLS)
                    fetched = engine.fetch_events(key, window)
                    spent = network.metrics.snapshot().counter(metric_names.GHFK_CALLS) - before
                    assert spent == len(reference), (key, str(window))
                    assert fetched == [
                        event
                        for event in events
                        if event.key == key and window.contains(event.time)
                    ], (key, str(window))

    check()
    if backend == "lsm":
        assert sum(count >= 2 for count in tables) >= 20
