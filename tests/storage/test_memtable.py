"""Tests for the LSM memtable."""

from __future__ import annotations

from repro.storage.kv.memtable import ABSENT, Memtable


class TestLookup:
    def test_absent_key(self):
        table = Memtable()
        assert table.lookup(b"k") is ABSENT

    def test_put_then_lookup(self):
        table = Memtable()
        table.write([(b"k", b"v")])
        assert table.lookup(b"k") == b"v"

    def test_overwrite(self):
        table = Memtable()
        table.write([(b"k", b"v1")])
        table.write([(b"k", b"v2")])
        assert table.lookup(b"k") == b"v2"
        assert len(table) == 1

    def test_tombstone_distinguished_from_absent(self):
        table = Memtable()
        table.write([(b"k", None)])
        assert table.lookup(b"k") is None

    def test_put_after_tombstone_resurrects(self):
        table = Memtable()
        table.write([(b"k", None)])
        table.write([(b"k", b"back")])
        assert table.lookup(b"k") == b"back"


class TestScan:
    def test_scan_is_sorted(self):
        table = Memtable()
        for key in (b"m", b"a", b"z", b"c"):
            table.write([(key, b"v-" + key)])
        keys = [key for key, _ in table.scan(None, None)]
        assert keys == sorted(keys)

    def test_scan_range_half_open(self):
        table = Memtable()
        for key in (b"a", b"b", b"c", b"d"):
            table.write([(key, key)])
        keys = [key for key, _ in table.scan(b"b", b"d")]
        assert keys == [b"b", b"c"]

    def test_scan_yields_tombstones_as_none(self):
        table = Memtable()
        table.write([(b"a", b"1")])
        table.write([(b"b", None)])
        entries = dict(table.scan(None, None))
        assert entries == {b"a": b"1", b"b": None}

    def test_scan_unbounded_start(self):
        table = Memtable()
        table.write([(b"x", b"1")])
        assert list(table.scan(None, b"y")) == [(b"x", b"1")]


    def test_scan_racing_a_put_loses_no_key_present_at_the_call(self):
        """A put of a smaller key mid-scan shifts the sorted key list; a
        scan walking it by position then repeats one key and never
        reaches the last."""
        table = Memtable()
        for key in (b"b", b"c", b"d"):
            table.write([(key, key)])
        scan = table.scan(None, None)
        assert next(scan) == (b"b", b"b")
        table.write([(b"a", b"a")])
        assert list(scan) == [(b"c", b"c"), (b"d", b"d")]

    def test_scan_reads_the_value_current_when_it_gets_there(self):
        table = Memtable()
        table.write([(b"a", b"1")])
        table.write([(b"b", b"1")])
        scan = table.scan(None, None)
        table.write([(b"b", b"2")])
        table.write([(b"a", None)])
        assert list(scan) == [(b"a", None), (b"b", b"2")]


class TestBookkeeping:
    def test_approximate_bytes_grows(self):
        table = Memtable()
        assert table.approximate_bytes == 0
        table.write([(b"key", b"value")])
        assert table.approximate_bytes == 8
