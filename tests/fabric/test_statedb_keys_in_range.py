"""Property test: ``StateDB.keys_in_range`` is the key column of
``get_state_by_range``.

One view reads the store's keys-only scan, the other its full scan; for
any bounds they must list the same keys in the same order, each counting
one range-scan call, and both must equal a sorted model of the live keys
minus the savepoint.  Each example writes
its states in five phases over the memory backend and over an LSM store
that flushes between phases: the first three flushes end in a full
compaction, the savepoint is then recorded, the fourth phase's writes --
tombstones of compacted keys among them -- go to a newer SSTable, and the
fifth stays in the memtable.  Keys come from an alphabet holding the
composite separators ``\\x00`` / ``\\x01``, so some sort right next to the
savepoint key ``\\x01savepoint``; bounds are empty (unbounded), such keys,
or the savepoint key itself.
"""

from __future__ import annotations

import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import metrics as metric_names
from repro.common.metrics import MetricsRegistry
from repro.fabric.block import KVWrite
from repro.fabric.statedb import SAVEPOINT_KEY, StateDB
from repro.storage.kv.lsm import LSMStore
from repro.storage.kv.memstore import MemStore

state_keys = st.text(alphabet="S1é\x00\x01sv", min_size=1, max_size=5)
#: One phase: ``(key, deleted)`` writes, applied as one batch.
phases = st.lists(st.tuples(state_keys, st.booleans()), max_size=12)
bounds = st.one_of(st.just(""), state_keys, st.just(SAVEPOINT_KEY), st.just("\x01t"))


def apply_phase(db: StateDB, model: dict, phase, block: int) -> None:
    db.apply_write([
        (KVWrite(key, None if deleted else block, is_delete=deleted), (block, tx), None)
        for tx, (key, deleted) in enumerate(phase)
    ])
    for key, deleted in phase:
        if deleted:
            model.pop(key, None)
        else:
            model[key] = block


def in_range(key: str, start: str, end: str) -> bool:
    return (not start or key >= start) and (not end or key < end)


@pytest.mark.parametrize("backend", ["memory", "lsm"])
def test_keys_in_range_is_the_key_column_of_get_state_by_range(backend):
    compactions = []  # per LSM example: compactions run

    @settings(max_examples=60)
    @given(
        written=st.lists(phases, min_size=5, max_size=5),
        ranges=st.lists(st.tuples(bounds, bounds), min_size=1, max_size=6),
    )
    def check(written, ranges):
        with tempfile.TemporaryDirectory() as scratch:
            metrics = MetricsRegistry()
            if backend == "memory":
                store = MemStore()
            else:
                store = LSMStore(scratch, compaction_trigger=3, metrics=metrics)
            db = StateDB(store, metrics=metrics)
            model: dict = {}
            for block, phase in enumerate(written, start=1):
                apply_phase(db, model, phase, block)
                if block == 3:
                    db.record_savepoint(block)
                if block < 5 and backend == "lsm":
                    # Seed the memtable so every flush writes a table.
                    db.apply_write([(KVWrite(f"v{block}", block), (block, 99), None)])
                    model[f"v{block}"] = block
                    store.flush()
            if backend == "lsm":
                compactions.append(metrics.snapshot().counter(metric_names.KV_COMPACTIONS))
            for start, end in ranges:
                before = metrics.snapshot().counter(metric_names.RANGE_SCAN_CALLS)
                keys = db.keys_in_range(start, end)
                assert metrics.snapshot().counter(metric_names.RANGE_SCAN_CALLS) == before + 1
                scanned = [key for key, _ in db.get_state_by_range(start, end)]
                assert metrics.snapshot().counter(metric_names.RANGE_SCAN_CALLS) == before + 2
                assert keys == scanned
                assert keys == sorted(key for key in model if in_range(key, start, end))
                assert SAVEPOINT_KEY not in keys
            db.close()

    check()
    if backend == "lsm":
        assert compactions and all(count == 1 for count in compactions)
