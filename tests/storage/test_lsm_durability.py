"""The LSM store's durable-write contract, checked by running it.

* Under ``durability="fsync"``, once :meth:`LSMStore.flush` returns, a
  power loss keeps every write: each staged table and manifest is
  fsynced before its rename.
* A staged write that fails closes the handle it opened.
"""

from __future__ import annotations

import errno
import io

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
            store.delete(key)
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
