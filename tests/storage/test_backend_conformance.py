"""Backend-conformance suite: both state-db backends must honour the
:class:`~repro.storage.kv.api.KVStore` contract identically -- ``lsm``
is checked against the ``memory`` reference, which is what lets a
configuration change the backend without changing a query result.
"""

from __future__ import annotations

import pytest

from repro.common.errors import ClosedStoreError
from repro.faults import FaultPlan, FaultyFS
from repro.storage.kv import BACKENDS, open_kv_store


def _open(backend, tmp_path):
    return open_kv_store(
        backend, path=tmp_path / "db", memtable_limit=8, compaction_trigger=3
    )


def test_expected_backends():
    assert set(BACKENDS) == {"memory", "lsm"}


@pytest.mark.parametrize("backend", BACKENDS)
class TestContract:
    def test_put_get_overwrite_delete(self, backend, tmp_path):
        store = _open(backend, tmp_path)
        try:
            assert store.get(b"k") is None
            store.put(b"k", b"v1")
            assert store.get(b"k") == b"v1"
            store.put(b"k", b"v2")
            assert store.get(b"k") == b"v2"
            store.write_batch([(b"k", None)])
            assert store.get(b"k") is None
            store.write_batch([(b"never-there", None)])  # no-op, no error
        finally:
            store.close()

    def test_scan_sorted_half_open(self, backend, tmp_path):
        store = _open(backend, tmp_path)
        try:
            for key in (b"d", b"a", b"c", b"e", b"b"):
                store.put(key, b"v-" + key)
            assert [k for k, _ in store.scan()] == [
                b"a", b"b", b"c", b"d", b"e",
            ]
            # Half-open [start, end): end is excluded, start included.
            assert [k for k, _ in store.scan(b"b", b"d")] == [b"b", b"c"]
            assert [k for k, _ in store.scan(b"b", b"b")] == []
            assert [k for k, _ in store.scan(None, b"c")] == [b"a", b"b"]
            assert [k for k, _ in store.scan(b"c", None)] == [b"c", b"d", b"e"]
        finally:
            store.close()

    def test_scan_values_match_gets(self, backend, tmp_path):
        store = _open(backend, tmp_path)
        try:
            expected = {}
            for i in range(40):  # crosses flush/checkpoint thresholds
                key = f"key-{i:03d}".encode()
                store.put(key, f"value-{i}".encode())
                expected[key] = f"value-{i}".encode()
            for i in range(0, 40, 3):
                key = f"key-{i:03d}".encode()
                store.write_batch([(key, None)])
                del expected[key]
            assert dict(store.scan()) == expected
            for key, value in expected.items():
                assert store.get(key) == value
        finally:
            store.close()

    def test_deleted_keys_stay_dead_across_flushes(self, backend, tmp_path):
        """Tombstone shadowing: a delete must shadow older flushed values
        no matter how many tables/checkpoints sit underneath."""
        store = _open(backend, tmp_path)
        try:
            for i in range(10):
                store.put(b"victim", f"gen-{i}".encode())
                for j in range(8):  # force flushes between generations
                    store.put(f"pad-{i}-{j}".encode(), b"x")
            store.write_batch([(b"victim", None)])
            for j in range(10):  # push the tombstone down a level too
                store.put(f"tail-{j}".encode(), b"x")
            assert store.get(b"victim") is None
            assert b"victim" not in dict(store.scan())
        finally:
            store.close()

    def test_validation(self, backend, tmp_path):
        store = _open(backend, tmp_path)
        try:
            with pytest.raises(ValueError):
                store.put(b"", b"v")
            with pytest.raises(TypeError):
                store.put("text", b"v")  # type: ignore[arg-type]
            with pytest.raises(TypeError):
                store.put(b"k", "text")  # type: ignore[arg-type]
        finally:
            store.close()

    def test_closed_store_raises(self, backend, tmp_path):
        store = _open(backend, tmp_path)
        store.close()
        store.close()  # idempotent
        with pytest.raises(ClosedStoreError):
            store.put(b"k", b"v")
        with pytest.raises(ClosedStoreError):
            store.get(b"k")
        with pytest.raises(ClosedStoreError):
            store.scan()  # at the call: no next() needed to find out
        with pytest.raises(ClosedStoreError):
            store.scan_keys()

    def test_reopen_recovers_acknowledged_writes(self, backend, tmp_path):
        if backend == "memory":
            pytest.skip("memory is not durable")
        store = _open(backend, tmp_path)
        for i in range(20):
            store.put(f"k{i:02d}".encode(), f"v{i}".encode())
        store.write_batch([(b"k05", None)])
        store.close()
        reopened = _open(backend, tmp_path)
        try:
            assert reopened.get(b"k05") is None
            for i in range(20):
                if i == 5:
                    continue
                assert reopened.get(f"k{i:02d}".encode()) == f"v{i}".encode()
        finally:
            reopened.close()

    def test_reopen_without_close_loses_nothing(self, backend, tmp_path):
        """Durable backends must recover acknowledged writes from the WAL
        even when the process never called close() (crash semantics)."""
        if backend == "memory":
            pytest.skip("memory is not durable")
        fs = FaultyFS(FaultPlan())
        store = open_kv_store(
            backend, path=tmp_path / "db", memtable_limit=8, compaction_trigger=3, fs=fs
        )
        store.put(b"acked", b"yes")
        # Acknowledged: the WAL record has left the process (a kill
        # destroys what it still buffers).
        store._wal.sync()
        # The process dies, not closed: its write handles are destroyed
        # unflushed and its readers closed.
        fs.kill()
        del store
        reopened = _open(backend, tmp_path)
        try:
            assert reopened.get(b"acked") == b"yes"
        finally:
            reopened.close()

    def test_backends_agree_pairwise(self, backend, tmp_path):
        """Every backend must produce byte-identical scan output for the
        same workload."""
        reference = open_kv_store("memory")
        store = _open(backend, tmp_path)
        try:
            operations = [(f"k{i % 7}".encode(), f"v{i}".encode())
                          for i in range(30)]
            for key, value in operations:
                reference.put(key, value)
                store.put(key, value)
            reference.write_batch([(b"k3", None)])
            store.write_batch([(b"k3", None)])
            assert list(store.scan()) == list(reference.scan())
        finally:
            store.close()
            reference.close()
