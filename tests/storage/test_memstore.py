"""Tests for the in-memory KV backend."""

from __future__ import annotations

import pytest

from repro.common.errors import ClosedStoreError
from repro.storage.kv import open_kv_store
from repro.storage.kv.memstore import MemStore


class TestBasicOps:
    def test_put_get_delete(self):
        store = MemStore()
        store.put(b"k", b"v")
        assert store.get(b"k") == b"v"
        store.write_batch([(b"k", None)])
        assert store.get(b"k") is None

    def test_len(self):
        store = MemStore()
        store.put(b"a", b"1")
        store.put(b"b", b"2")
        store.put(b"a", b"3")  # an overwrite adds no second entry
        assert list(store.scan()) == [(b"a", b"3"), (b"b", b"2")]

    def test_scan_sorted(self):
        store = MemStore()
        for key in (b"m", b"a", b"z"):
            store.put(key, key)
        assert [k for k, _ in store.scan()] == [b"a", b"m", b"z"]

    def test_scan_range(self):
        store = MemStore()
        for i in range(5):
            store.put(f"k{i}".encode(), b"v")
        assert [k for k, _ in store.scan(b"k1", b"k4")] == [b"k1", b"k2", b"k3"]

    def test_delete_keeps_sorted_keys_consistent(self):
        store = MemStore()
        for key in (b"a", b"b", b"c"):
            store.put(key, key)
        store.write_batch([(b"b", None)])
        assert [k for k, _ in store.scan()] == [b"a", b"c"]
        store.put(b"b", b"back")
        assert [k for k, _ in store.scan()] == [b"a", b"b", b"c"]

    def test_close(self):
        store = MemStore()
        store.close()
        with pytest.raises(ClosedStoreError):
            store.get(b"k")


class TestFactory:
    def test_open_memory(self):
        assert isinstance(open_kv_store("memory"), MemStore)

    def test_open_lsm_requires_path(self):
        with pytest.raises(ValueError, match="requires a path"):
            open_kv_store("lsm")

    def test_open_lsm(self, tmp_path):
        store = open_kv_store("lsm", path=tmp_path / "db")
        store.put(b"k", b"v")
        assert store.get(b"k") == b"v"
        store.close()

    def test_unknown_backend(self, tmp_path):
        # "btree" and "lsm-mmap" named backends until PR 14 removed them.
        for name in ("rocksdb", "btree", "lsm-mmap"):
            with pytest.raises(ValueError, match=r"unknown KV backend .*\['lsm', 'memory'\]"):
                open_kv_store(name, path=tmp_path / "db")
