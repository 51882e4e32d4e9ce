"""Property test: M2's entity listing and its GHFKs against brute force.

``M2QueryEngine.list_keys`` lists base keys off one keys-only scan,
decoding the first ``(k, θ)`` key of each base key and bisecting past the
rest; ``fetch_events`` GHFKs the ``(k, θ)`` keys its scan returned.  The
reference is computed from the input alone: the ``(k, θ)`` keys the
ingest wrote minus those deleted afterwards, sorted, their base keys
listed once each in that order.  Base keys prefix each other (``S1``,
``S10``, ``S1é``), and deletions -- a random subset of ``(k, θ)`` keys,
sometimes every one of a base key -- commit after the ingest, so over an
LSM store with an 8-entry memtable their tombstones shadow states that sit
in older SSTables.  A spy on ``Ledger.get_history_for_key`` must see one
GHFK per interval of ``overlapping_intervals``, spelled by
``encode_interval_key``, in the same order.
"""

from __future__ import annotations

import tempfile
from contextlib import closing
from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import BlockCuttingConfig, FabricConfig, StateDbConfig
from repro.fabric.network import FabricNetwork
from repro.temporal.chaincodes import M2SupplyChainChaincode
from repro.temporal.events import LOAD, UNLOAD, Event
from repro.temporal.intervals import FixedIntervalScheme, TimeInterval
from repro.temporal.keys import SEPARATOR, encode_interval_key, interval_key_suffix
from repro.temporal.m2 import M2QueryEngine
from repro.workload.ingest import ingest
from tests.helpers import KeyValueChaincode

KEYS = ("S1", "S10", "S1é", "C1")
T_LAST = 120


def composite_of(event: Event, u: int) -> str:
    return event.key + interval_key_suffix(*FixedIntervalScheme(u).bounds_for(event.time))


@st.composite
def scenarios(draw):
    u = draw(st.integers(min_value=1, max_value=30))
    events = []
    for key in KEYS:
        times = draw(st.sets(st.integers(min_value=1, max_value=T_LAST), min_size=1, max_size=10))
        events += [
            Event(time=time, key=key, other="X", kind=(LOAD, UNLOAD)[index % 2])
            for index, time in enumerate(sorted(times))
        ]
    written = sorted({composite_of(event, u) for event in events})
    deleted = draw(st.sets(st.sampled_from(written)))
    emptied = draw(st.sampled_from((None,) + KEYS))  # every (k, θ) of one key deleted
    deleted |= {composite for composite in written if composite.split(SEPARATOR)[0] == emptied}
    windows = [
        TimeInterval(start, start + length)
        for start, length in draw(st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=T_LAST + u),
                st.integers(min_value=1, max_value=3 * u + 5),
            ),
            min_size=2, max_size=5,
        ))
    ]
    windows.append(TimeInterval(0, T_LAST + u))
    return u, sorted(events), sorted(deleted), windows


def brute_force_keys(live: List[str], prefix: str) -> List[str]:
    """Distinct base keys of the sorted ``live`` ``(k, θ)`` keys, in order."""
    keys: List[str] = []
    for composite in live:
        base_key = composite.split(SEPARATOR)[0]
        if base_key.startswith(prefix) and base_key not in keys:
            keys.append(base_key)
    return keys


@pytest.mark.parametrize("backend", ["memory", "lsm"])
def test_listing_and_ghfks_match_brute_force(backend):
    config = FabricConfig(
        block_cutting=BlockCuttingConfig(max_message_count=4),
        state_db=StateDbConfig(backend=backend, memtable_limit=8),
    )
    shadowed = []  # per example: deleted (k, θ) states still in an SSTable

    @settings(max_examples=40)
    @given(scenarios())
    def check(scenario):
        u, events, deleted, windows = scenario
        with tempfile.TemporaryDirectory() as scratch, closing(FabricNetwork(
            scratch, config=config
        )) as network:
            network.install(M2SupplyChainChaincode(u=u))
            network.install(KeyValueChaincode())
            gateway = network.gateway("ingestor")
            ingest(gateway, events, M2SupplyChainChaincode.name, strategy="se")
            for composite in deleted:
                gateway.submit_transaction(
                    KeyValueChaincode.name, "delete", [composite], timestamp=T_LAST + 1
                )
            gateway.flush()
            store = network.ledger.state_db._store  # non-vacuity check only
            shadowed.append(sum(
                reader.lookup(composite.encode("utf-8"))[1] is not None
                for reader in getattr(store, "_readers", ())
                for composite in deleted
            ))

            live = sorted({composite_of(event, u) for event in events} - set(deleted))
            engine = M2QueryEngine(network.ledger, metrics=network.metrics)
            for prefix in ("", "S", "S1", "S10", "C"):
                assert engine.list_keys(prefix) == brute_force_keys(live, prefix), prefix

            ledger = network.ledger
            read = ledger.get_history_for_key
            ghfks: List[str] = []

            def spy(key):
                ghfks.append(key)
                return read(key)

            ledger.get_history_for_key = spy
            for window in windows:
                for key in KEYS:
                    ghfks.clear()
                    fetched = engine.fetch_events(key, window)
                    assert ghfks == [
                        encode_interval_key(key, interval)
                        for interval in engine.overlapping_intervals(key, window)
                    ], (key, str(window))
                    assert fetched == [
                        event
                        for event in events
                        if event.key == key
                        and window.contains(event.time)
                        and composite_of(event, u) in live
                    ], (key, str(window))

    check()
    if backend == "lsm":
        assert sum(count > 0 for count in shadowed) >= 20
