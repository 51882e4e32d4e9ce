"""Tests for the write-ahead log: durability, replay, torn/corrupt tails."""

from __future__ import annotations

import pytest

from repro.common.errors import WalCorruptionError
from repro.storage.kv.api import OP_DELETE, OP_PUT
from repro.storage.kv.wal import WriteAheadLog, replay


def test_replay_missing_file_yields_nothing(tmp_path):
    assert replay(tmp_path / "nope.log")[0] == []


def test_round_trip_puts_and_deletes(tmp_path):
    wal = WriteAheadLog(tmp_path / "wal.log")
    wal.append([(b"k1", b"v1")])
    wal.append([(b"k2", None)])
    wal.append([(b"k1", b"v2")])
    wal.close()
    records, torn_at = replay(tmp_path / "wal.log")
    assert torn_at is None
    assert records == [
        (OP_PUT, b"k1", b"v1"),
        (OP_DELETE, b"k2", None),
        (OP_PUT, b"k1", b"v2"),
    ]


def test_empty_values_and_binary_keys(tmp_path):
    wal = WriteAheadLog(tmp_path / "wal.log")
    wal.append([(b"\x00\xff", b"")])
    wal.close()
    assert replay(tmp_path / "wal.log")[0] == [(OP_PUT, b"\x00\xff", b"")]


def test_truncate_discards_records(tmp_path):
    wal = WriteAheadLog(tmp_path / "wal.log")
    wal.append([(b"k", b"v")])
    wal.truncate()
    wal.append([(b"k2", b"v2")])
    wal.close()
    assert replay(tmp_path / "wal.log")[0] == [(OP_PUT, b"k2", b"v2")]


def test_torn_tail_is_dropped(tmp_path):
    path = tmp_path / "wal.log"
    wal = WriteAheadLog(path)
    wal.append([(b"good", b"record")])
    wal.append([(b"torn", b"record")])
    wal.close()
    data = path.read_bytes()
    path.write_bytes(data[:-4])  # simulate crash mid-append
    # Both records are 21 bytes: the torn tail starts at the second.
    assert replay(path) == ([(OP_PUT, b"good", b"record")], len(data) // 2)


def test_corrupt_tail_record_is_dropped(tmp_path):
    path = tmp_path / "wal.log"
    wal = WriteAheadLog(path)
    wal.append([(b"good", b"record")])
    wal.append([(b"bad", b"record")])
    wal.close()
    data = bytearray(path.read_bytes())
    data[-1] ^= 0xFF  # flip a payload bit in the final record
    path.write_bytes(bytes(data))
    # The final record is 8 header bytes and a 12-byte payload.
    assert replay(path) == ([(OP_PUT, b"good", b"record")], len(data) - 20)


def test_corrupt_middle_record_raises(tmp_path):
    path = tmp_path / "wal.log"
    wal = WriteAheadLog(path)
    wal.append([(b"first", b"v")])
    wal.append([(b"second", b"v")])
    wal.close()
    data = bytearray(path.read_bytes())
    data[12] ^= 0xFF  # corrupt inside the first record's payload
    path.write_bytes(bytes(data))
    with pytest.raises(WalCorruptionError):
        replay(path)


def test_reopen_appends_after_existing_records(tmp_path):
    path = tmp_path / "wal.log"
    wal = WriteAheadLog(path)
    wal.append([(b"a", b"1")])
    wal.close()
    wal = WriteAheadLog(path)
    wal.append([(b"b", b"2")])
    wal.close()
    keys = [key for _, key, _ in replay(path)[0]]
    assert keys == [b"a", b"b"]


def test_size_bytes_grows(tmp_path):
    path = tmp_path / "wal.log"
    wal = WriteAheadLog(path)
    initial = path.stat().st_size
    wal.append([(b"key", b"value")])
    wal.sync()
    assert path.stat().st_size > initial
    wal.close()
