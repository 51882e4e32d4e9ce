"""The LSM store's durable-write contract, checked by running it.

* Under ``durability="fsync"``, once :meth:`LSMStore.flush` returns, a
  power loss keeps every write: each staged table and manifest is
  fsynced before its rename.
* A staged write that fails closes the handle it opened.
* A WAL whose last record a crash tore is cut back to its last intact
  record before it takes appends, so what is synced next survives.
* A compaction victim is deleted through the store's filesystem, and a
  simulated crash stops that deletion as it stops every other write.
"""

from __future__ import annotations

import errno
import gc
import io
import sys

import pytest

from repro.faults import FaultPlan, FaultyFS
from repro.faults.fs import REAL_FS
from repro.storage.kv.lsm import LSMStore
from repro.storage.kv.sstable import TMP_SUFFIX, write_sstable
from tests.helpers import HandleRecordingFS


def _open(path, fs=REAL_FS) -> LSMStore:
    return LSMStore(path, memtable_limit=4, compaction_trigger=3, durability="fsync", fs=fs)


def test_a_flushed_store_survives_power_loss(tmp_path):
    fs = FaultyFS(FaultPlan())
    store = _open(tmp_path / "db", fs)
    model = {}
    held = []
    for i in range(60):
        key = f"k{i % 7}".encode()
        if i % 5 == 4:
            store.write_batch([(key, None)])
            model.pop(key, None)
        else:
            store.put(key, f"v{i}".encode())
            model[key] = f"v{i}".encode()
        if i % 3 == 0:
            # A held scan keeps the tables it read on disk past the
            # compaction that retires them; the last few stay held
            # until the test returns, past the reopen.
            held = held[-2:] + [store.scan()]
    store.flush()
    fs.kill(power_loss=True)
    reopened = _open(tmp_path / "db")
    try:
        assert dict(reopened.scan()) == model
    finally:
        reopened.close()


class _DiskFull(HandleRecordingFS):
    """Once ``full``, a write to a staged ``.tmp`` file fails with ``ENOSPC``."""

    full = False

    def open(self, path, mode):
        if not (self.full and str(path).endswith(TMP_SUFFIX)):
            return super().open(path, mode)
        self.opened.append(_NoSpace(path, mode))
        return self.opened[-1]


class _NoSpace(io.FileIO):
    def write(self, data):
        raise OSError(errno.ENOSPC, "No space left on device")


def _stage_a_table(path, fs) -> None:
    fs.full = True
    write_sstable(path / "sst-00000001.sst", iter([(b"k", b"v")]), fs=fs, fsync=True)


def _stage_a_manifest(path, fs) -> None:
    store = _open(path, fs)
    store.put(b"k", b"v")
    store.flush()
    fs.full = True
    try:
        store._write_manifest()
    finally:
        store.close()


@pytest.mark.parametrize("stage", [_stage_a_table, _stage_a_manifest])
def test_a_failed_staged_write_closes_its_handle(tmp_path, stage):
    fs = _DiskFull()
    with pytest.raises(OSError, match="No space"):
        stage(tmp_path / "db", fs)
    assert fs.all_closed()


def test_writes_after_a_torn_wal_tail_survive_power_loss(tmp_path):
    """A crash tore the WAL's last record; the writes synced after the
    reopen must replay after the next power loss, not hide behind the
    torn bytes that replay stops at."""
    path = tmp_path / "db"
    fs = FaultyFS(FaultPlan())
    store = _open(path, fs)
    store.put(b"a", b"1")
    store._wal.sync()
    fs.kill()
    with open(path / "wal.log", "ab") as wal:
        wal.write(b"\x05\x00")  # a record header cut short
    fs = FaultyFS(FaultPlan())
    store = _open(path, fs)
    store.put(b"b", b"2")
    store.put(b"c", b"3")
    store._wal.sync()
    fs.kill(power_loss=True)
    reopened = _open(path)
    try:
        assert [reopened.get(key) for key in (b"a", b"b", b"c")] == [b"1", b"2", b"3"]
    finally:
        reopened.close()


def test_scans_dropped_after_a_crash_delete_no_table(tmp_path, monkeypatch):
    """Scans held across compactions keep the victims' files; dropping
    them after a simulated crash deletes none, and raises nothing inside
    the finalizers that would have deleted them."""
    path = tmp_path / "db"
    fs = FaultyFS(FaultPlan())
    store = _open(path, fs)
    held = []
    for i in range(40):
        store.put(f"k{i:02d}".encode(), b"v")
        held.append(store.scan())
    assert store._pending_unlinks  # compactions retired tables still held
    tables = sorted(path.glob("*.sst"))
    fs.kill(power_loss=True)
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    del store
    held.clear()
    gc.collect()
    assert sorted(path.glob("*.sst")) == tables
    assert unraisable == []
