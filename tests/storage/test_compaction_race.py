"""Regression tests for compaction unlinking tables a held scan reads.

``_merge_tables`` used to ``unlink`` its victim SSTables inline, while a
``scan`` iterator held across the compaction reads from a snapshot that
may still reference those readers.  Victims are now retired through a GC
finalizer that deletes the file only once the last reader reference
drains (plus a ``MANIFEST.json`` so a crash before the finalizer cannot
resurrect the victim on reopen).  These tests pin the file *lifetimes*:
a victim exists while a snapshot lists it, is gone once the snapshot is
collected, and is gone after ``close()`` whatever is still alive.
"""

from __future__ import annotations

import gc

from repro.common import metrics as metric_names
from repro.common.metrics import MetricsRegistry
from repro.faults import FaultPlan, FaultyFS
from repro.storage.kv import open_kv_store
from repro.storage.kv.lsm import LSMStore
from tests.helpers import table_rows


def _fill(store: LSMStore, start: int, count: int) -> None:
    for i in range(start, start + count):
        store.put(f"key-{i:04d}".encode(), f"value-{i}".encode())


class TestDeferredVictimDeletion:
    """Deterministic reproduction: hold a snapshot across a compaction."""

    def test_snapshot_survives_compaction(self, tmp_path):
        """A reader snapshot captured before a compaction must keep
        serving from the victim tables, and their files must stay on
        disk while it is alive."""
        store = open_kv_store(
            "lsm", path=tmp_path / "db",
            memtable_limit=4, compaction_trigger=3,
        )
        try:
            _fill(store, 0, 8)  # two flushed tables, below the trigger
            assert store.sstable_count == 2
            _memtable, tables = store._memtable, store._readers
            victim_paths = [reader.path for reader in tables]
            assert all(path.exists() for path in victim_paths)

            _fill(store, 8, 4)  # third flush trips the full compaction
            assert store.sstable_count == 1

            # The files are retired, not gone: our snapshot still holds
            # their readers.
            assert all(path.exists() for path in victim_paths)
            for reader in tables:
                found, value = reader.lookup(b"key-0003")
                if found:
                    assert value == b"value-3"
            assert any(reader.lookup(b"key-0003")[0] for reader in tables)
            assert table_rows(tables[0])

            # Dropping the last references (the tuple and the loop
            # variable) lets the finalizers delete the files.
            del tables, reader
            gc.collect()
            assert not any(path.exists() for path in victim_paths)
            # The live table set is untouched by the retirement.
            assert store.get(b"key-0003") == b"value-3"
        finally:
            store.close()

    def test_close_force_deletes_retired_tables(self, tmp_path):
        store = open_kv_store(
            "lsm", path=tmp_path / "db",
            memtable_limit=4, compaction_trigger=3,
        )
        _memtable = tables = None
        _fill(store, 0, 8)
        _memtable, tables = store._memtable, store._readers
        victim_paths = [reader.path for reader in tables]
        _fill(store, 8, 4)
        assert all(path.exists() for path in victim_paths)
        # Close with the snapshot still alive: the backstop must not
        # leave orphaned victims behind for reopen to misread.
        store.close()
        assert not any(path.exists() for path in victim_paths)

    def test_reopen_after_crash_ignores_orphaned_victim(self, tmp_path):
        """If the process dies before a deferred unlink runs, the
        orphaned victim must not resurrect deleted keys on reopen: the
        manifest omits it, so reopen treats it as a stray."""
        fs = FaultyFS(FaultPlan())
        store = open_kv_store(
            "lsm", path=tmp_path / "db",
            memtable_limit=2, compaction_trigger=2, fs=fs,
        )
        store.put(b"doomed", b"v")
        store.put(b"other", b"v")  # flush 1
        store.write_batch([(b"doomed", None)])
        store.put(b"pad", b"v")  # flush 2 -> compaction drops nothing yet
        # Keep a victim alive artificially, so its finalizer has not fired
        # when the process dies.
        pinned, tables = store._memtable, store._readers
        victim = tables[0].path
        store.put(b"x1", b"v")
        store.put(b"x2", b"v")  # flush 3 -> compaction retires victims
        assert victim.exists()
        # "Crash": the process dies without close(), so no force-unlink
        # runs, and a killed filesystem runs no deferred unlink either:
        # releasing the pin leaves the orphan on disk.
        fs.kill()
        del store, pinned, tables
        gc.collect()
        assert victim.exists()  # the orphan survives the "crash"

        reopened = LSMStore(tmp_path / "db", memtable_limit=2,
                            compaction_trigger=2)
        try:
            # The orphan held a live 'doomed' record; loading it would
            # resurrect the deleted key.
            assert reopened.get(b"doomed") is None
            assert reopened.get(b"other") == b"v"
            assert not victim.exists()
        finally:
            reopened.close()


def test_scan_iterators_survive_compactions_interleaved(tmp_path):
    """Eight ``scan()`` iterators are held open, each advanced a few
    entries per turn, while a writer pumps keys through tiny tables and
    forces compactions between the turns.  Each scan yields exactly the
    store as of its call: sorted, complete, and none of the later keys."""
    metrics = MetricsRegistry()
    store = open_kv_store(
        "lsm", path=tmp_path / "db",
        memtable_limit=8, compaction_trigger=3, metrics=metrics,
    )
    _fill(store, 0, 64)
    written = 64
    scans = []  # (iterator, the keys it must yield, the keys it yielded)
    try:
        for round_num in range(30):
            if round_num < 8:
                expected = [f"key-{i:04d}".encode() for i in range(written)]
                scans.append((store.scan(), expected, []))
            for iterator, _, seen in scans:
                for _ in range(16):
                    entry = next(iterator, None)
                    if entry is not None:
                        key, value = entry
                        assert value == f"value-{int(key[len(b'key-'):])}".encode()
                        seen.append(key)
            _fill(store, written, 16)
            written += 16
        for iterator, expected, seen in scans:
            seen.extend(key for key, _ in iterator)
            assert seen == expected
        assert metrics.snapshot().counter(metric_names.KV_COMPACTIONS) >= 8
    finally:
        store.close()
