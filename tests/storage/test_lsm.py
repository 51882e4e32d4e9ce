"""Tests for the LSM store: read/write paths, flush, compaction, recovery."""

from __future__ import annotations

from contextlib import closing

import pytest

from repro.common import metrics as metric_names
from repro.common.errors import ClosedStoreError
from repro.common.metrics import MetricsRegistry
from repro.storage.kv import lsm
from repro.storage.kv.lsm import LSMStore


@pytest.fixture
def store(tmp_path):
    with closing(LSMStore(tmp_path / "db", memtable_limit=8, compaction_trigger=4)) as store:
        yield store


class TestBasicOps:
    def test_get_absent(self, store):
        assert store.get(b"missing") is None

    def test_put_get(self, store):
        store.put(b"k", b"v")
        assert store.get(b"k") == b"v"

    def test_overwrite(self, store):
        store.put(b"k", b"v1")
        store.put(b"k", b"v2")
        assert store.get(b"k") == b"v2"

    def test_delete(self, store):
        store.put(b"k", b"v")
        store.write_batch([(b"k", None)])
        assert store.get(b"k") is None

    def test_delete_absent_is_noop(self, store):
        store.write_batch([(b"never-existed", None)])
        assert store.get(b"never-existed") is None

    def test_empty_key_rejected(self, store):
        with pytest.raises(ValueError):
            store.put(b"", b"v")

    def test_non_bytes_rejected(self, store):
        with pytest.raises(TypeError):
            store.put("str-key", b"v")  # type: ignore[arg-type]


class TestFlushAndShadowing:
    def test_flush_preserves_reads(self, store):
        for i in range(20):  # crosses the memtable limit of 8
            store.put(f"k{i:02d}".encode(), f"v{i}".encode())
        assert store.sstable_count >= 1
        for i in range(20):
            assert store.get(f"k{i:02d}".encode()) == f"v{i}".encode()

    def test_memtable_overwrites_sstable_value(self, store):
        store.put(b"k", b"old")
        store.flush()
        store.put(b"k", b"new")
        assert store.get(b"k") == b"new"

    def test_tombstone_shadows_sstable_value(self, store):
        store.put(b"k", b"old")
        store.flush()
        store.write_batch([(b"k", None)])
        assert store.get(b"k") is None

    def test_tombstone_shadows_in_scan(self, store):
        store.put(b"a", b"1")
        store.put(b"b", b"2")
        store.flush()
        store.write_batch([(b"a", None)])
        assert list(store.scan()) == [(b"b", b"2")]

    def test_newer_sstable_beats_older(self, store):
        store.put(b"k", b"old")
        store.flush()
        store.put(b"k", b"new")
        store.flush()
        assert store.get(b"k") == b"new"


class TestScan:
    def test_scan_merges_memtable_and_sstables(self, store):
        store.put(b"a", b"1")
        store.flush()
        store.put(b"c", b"3")
        store.flush()
        store.put(b"b", b"2")
        assert list(store.scan()) == [(b"a", b"1"), (b"b", b"2"), (b"c", b"3")]

    def test_scan_range(self, store):
        for i in range(10):
            store.put(f"k{i}".encode(), str(i).encode())
        assert [k for k, _ in store.scan(b"k3", b"k6")] == [b"k3", b"k4", b"k5"]

    def test_scan_duplicate_key_newest_wins(self, store):
        store.put(b"k", b"v1")
        store.flush()
        store.put(b"k", b"v2")
        store.flush()
        store.put(b"k", b"v3")
        assert list(store.scan()) == [(b"k", b"v3")]

    def test_scan_empty_store(self, store):
        assert list(store.scan()) == []

    def test_verify_integrity(self, store):
        for i in range(30):
            store.put(f"key{i:03d}".encode(), b"v")
        keys = [key for key, _ in store.scan()]
        assert all(a < b for a, b in zip(keys, keys[1:]))


    def test_scan_racing_a_put_loses_no_key_present_at_the_call(self, store):
        """The memtable walk used to follow positions in the live key
        list: ``a`` arriving mid-scan shifted it and ``d`` was dropped."""
        for key in (b"b", b"c", b"d"):
            store.put(key, key)
        scan = store.scan()
        assert next(scan) == (b"b", b"b")
        store.put(b"a", b"a")
        assert list(scan) == [(b"c", b"c"), (b"d", b"d")]

    def test_scans_between_writes_never_lose_a_key_present_before(self, tmp_path):
        """Four scans are held while a writer inserts ever-smaller keys
        (each one shifts the memtable's whole key list), each scan
        advanced one entry per insert: every scan is strictly sorted and
        yields exactly the keys there at its call."""
        base = [b"m%03d" % i for i in range(50)]
        with closing(LSMStore(tmp_path / "db", memtable_limit=4096)) as store:
            for key in base:
                store.put(key, b"v")
            written = list(base)
            scans = []  # (iterator, keys at the call, keys yielded)
            for i in range(400, 0, -1):
                if i % 100 == 0:
                    scans.append((store.scan(), sorted(written), []))
                for scan, _, seen in scans:
                    entry = next(scan, None)
                    if entry is not None:
                        seen.append(entry[0])
                store.put(b"a%04d" % i, b"v")
                written.append(b"a%04d" % i)
            assert len(scans) == 4
            for scan, present, seen in scans:
                seen.extend(key for key, _ in scan)
                assert seen == present
                assert set(base) <= set(seen)
                assert all(a < b for a, b in zip(seen, seen[1:]))

    def test_scan_is_of_the_store_as_of_the_call(self, store):
        """The snapshot is the call's, not the first ``next()``'s: a put
        and a flush in between are not in it."""
        store.put(b"a", b"1")
        store.flush()
        store.put(b"b", b"2")
        scan = store.scan()
        store.put(b"c", b"3")
        store.flush()
        assert list(scan) == [(b"a", b"1"), (b"b", b"2")]
        assert list(store.scan()) == [(b"a", b"1"), (b"b", b"2"), (b"c", b"3")]


FLUSH = ("flush",)

#: name -> (operations, scan start, scan end, whether the heap must run).
#: A scan merges with a heap only when two or more sources have an entry
#: in range; one source alone is read straight through.
SCAN_CELLS = {
    "memtable only": (
        [("put", b"a", b"1"), ("put", b"c", b"3"), ("put", b"b", b"2"), ("del", b"c")],
        None, None, False,
    ),
    "one table, empty memtable": (
        [("put", b"b", b"2"), ("put", b"a", b"1"), ("del", b"b"), ("put", b"c", b"3"),
         FLUSH],
        None, None, False,
    ),
    "one table in range among several": (
        [("put", b"a1", b"1"), ("put", b"a2", b"2"), FLUSH,
         ("put", b"m1", b"3"), ("put", b"m2", b"4"), ("del", b"m3"), FLUSH,
         ("put", b"x1", b"5"), FLUSH,
         ("put", b"z1", b"6")],
        b"m", b"n", False,
    ),
    "overlapping tables, overwrites and deletes": (
        [("put", b"k1", b"a"), ("put", b"k2", b"a"), ("put", b"k3", b"a"),
         ("put", b"k4", b"a"), ("put", b"k5", b"a"), FLUSH,
         ("put", b"k2", b"b"), ("del", b"k3"), ("put", b"k7", b"b"), FLUSH,
         ("put", b"k4", b"c"), ("del", b"k1"), ("put", b"k6", b"c"), ("put", b"k3", b"c"),
         ("del", b"k7")],
        None, None, True,
    ),
    "overlapping tables, bounded range": (
        [("put", b"k1", b"a"), ("put", b"k5", b"a"), FLUSH,
         ("put", b"k1", b"b"), ("del", b"k5"), ("put", b"k9", b"b"), FLUSH],
        b"k1", b"k6", True,
    ),
    "first entry in range is a tombstone": (
        [("put", b"a", b"1"), FLUSH,
         ("put", b"b", b"2"), ("put", b"c", b"3"), ("del", b"b"), FLUSH],
        b"b", None, False,
    ),
    "first entry of the newest source is a tombstone": (
        [("put", b"a", b"1"), ("put", b"b", b"2"), FLUSH, ("del", b"a")],
        None, None, True,
    ),
}


class TestScanSources:
    """Every shape of source set against a dict model, which of the two
    scan paths (single source / heap merge) answered, and the keys-only
    scan listing the same keys."""

    @pytest.mark.parametrize("name", sorted(SCAN_CELLS))
    def test_scan_equals_the_dict_model(self, tmp_path, monkeypatch, name):
        operations, start, end, heap_expected = SCAN_CELLS[name]
        heapified = []
        real_heapify = lsm.heapq.heapify

        def spy(heap):
            heapified.append(len(heap))
            real_heapify(heap)

        model = {}
        with closing(LSMStore(tmp_path / "db", memtable_limit=64, compaction_trigger=16)) as store:
            for operation in operations:
                if operation == FLUSH:
                    store.flush()
                elif operation[0] == "put":
                    store.put(operation[1], operation[2])
                    model[operation[1]] = operation[2]
                else:
                    store.write_batch([(operation[1], None)])
                    model.pop(operation[1], None)
            monkeypatch.setattr(lsm.heapq, "heapify", spy)
            scanned = list(store.scan(start, end))
            assert store.scan_keys(start, end) == [key for key, _ in scanned]
        assert scanned == sorted(
            (key, value)
            for key, value in model.items()
            if (start is None or key >= start) and (end is None or key < end)
        )
        assert bool(heapified) == heap_expected
        assert all(sources >= 2 for sources in heapified)


class TestCompaction:
    def test_compaction_reduces_table_count(self, tmp_path):
        metrics = MetricsRegistry()
        store = LSMStore(
            tmp_path / "db", memtable_limit=4, compaction_trigger=3, metrics=metrics
        )
        for i in range(40):
            store.put(f"k{i:03d}".encode(), b"v")
        assert metrics.snapshot().counter(metric_names.KV_COMPACTIONS) >= 1
        assert store.sstable_count < 3
        for i in range(40):
            assert store.get(f"k{i:03d}".encode()) == b"v"
        store.close()

    def test_compaction_drops_tombstones(self, tmp_path):
        store = LSMStore(tmp_path / "db", memtable_limit=2, compaction_trigger=2)
        store.put(b"a", b"1")
        store.put(b"b", b"2")  # flush 1
        store.write_batch([(b"a", None)])
        store.write_batch([(b"b", None)])  # flush 2 -> compaction
        assert store.get(b"a") is None
        assert list(store.scan()) == []
        store.close()


class TestRecovery:
    def test_reopen_recovers_memtable_from_wal(self, tmp_path):
        store = LSMStore(tmp_path / "db", memtable_limit=100)
        store.put(b"k1", b"v1")
        store.put(b"k2", b"v2")
        store._wal.sync()
        # Simulate a crash: do NOT close (close would flush the memtable).
        store._wal._file.close()
        reopened = LSMStore(tmp_path / "db", memtable_limit=100)
        assert reopened.get(b"k1") == b"v1"
        assert reopened.get(b"k2") == b"v2"
        reopened.close()

    def test_reopen_recovers_deletes_from_wal(self, tmp_path):
        store = LSMStore(tmp_path / "db", memtable_limit=2)
        store.put(b"a", b"1")
        store.put(b"b", b"2")  # flushed to SSTable
        store.write_batch([(b"a", None)])  # only in WAL
        store._wal.sync()
        store._wal._file.close()
        reopened = LSMStore(tmp_path / "db", memtable_limit=100)
        assert reopened.get(b"a") is None
        assert reopened.get(b"b") == b"2"
        reopened.close()

    def test_close_flushes_and_reopen_reads(self, tmp_path):
        store = LSMStore(tmp_path / "db")
        store.put(b"k", b"v")
        store.close()
        reopened = LSMStore(tmp_path / "db")
        assert reopened.get(b"k") == b"v"
        reopened.close()

    def test_operations_after_close_raise(self, tmp_path):
        store = LSMStore(tmp_path / "db")
        store.close()
        with pytest.raises(ClosedStoreError):
            store.get(b"k")
        with pytest.raises(ClosedStoreError):
            store.put(b"k", b"v")


class TestMetricsIntegration:
    def test_reads_and_writes_counted(self, tmp_path):
        metrics = MetricsRegistry()
        store = LSMStore(tmp_path / "db", metrics=metrics)
        store.put(b"k", b"v")
        store.get(b"k")
        assert metrics.snapshot().counter(metric_names.KV_WRITES) == 1
        assert metrics.snapshot().counter(metric_names.KV_READS) == 1
        assert metrics.snapshot().counter(metric_names.WAL_RECORDS) == 1
        store.close()

    def test_read_counters_of_a_fixed_scenario_are_pinned(self, tmp_path):
        """Four overlapping tables and a memtable, probed with present,
        overwritten, deleted, never-written and in-between keys.  The
        three literals were generated on the tree before ``get`` hashed
        its key once and ticked per call (PR 22's parent): the one-hash
        ``get`` is count-identical, not only value-identical."""
        metrics = MetricsRegistry()
        model = {}

        def put(key, value):
            store.put(key, value)
            model[key] = value

        def delete(key):
            store.write_batch([(key, None)])
            model.pop(key, None)

        store = LSMStore(
            tmp_path / "db", memtable_limit=16, compaction_trigger=8, metrics=metrics
        )
        for table in range(4):
            for i in range(14):  # the first two overwrite the table before
                put(f"key-{table * 12 + i:03d}".encode(), f"v{table}-{i}".encode())
            delete(f"key-{table * 12 + 5:03d}".encode())  # within the table
            if table:
                delete(f"key-{table * 12 - 9:03d}".encode())  # shadows an older table
            store.flush()
        put(b"key-002", b"memtable")
        delete(b"key-030")
        assert store.sstable_count == 4
        probes = (
            [f"key-{i:03d}".encode() for i in range(0, 52, 3)]
            + [f"key-{i:03d}".encode() for i in (2, 5, 3, 15, 17, 27, 29, 30, 41)]
            + [f"nope-{i:03d}".encode() for i in range(40)]
            + [f"key-{i:03d}x".encode() for i in range(0, 50, 7)]
        )
        before = metrics.snapshot()
        assert [store.get(key) for key in probes] == [model.get(key) for key in probes]
        delta = metrics.snapshot().diff(before)
        assert delta.counter(metric_names.KV_READS) == 75
        assert delta.counter(metric_names.KV_SSTABLE_READS) == 23
        assert delta.counter(metric_names.KV_BLOOM_NEGATIVES) == 225
        store.close()
