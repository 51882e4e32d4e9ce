"""Exhaustive torn-tail and corruption sweeps over the storage formats.

Every persistent format must uphold the same contract under damage:
truncation at *any* byte offset and a flipped byte at *any* position
yield either a clean prefix of the original records or a typed
:class:`~repro.common.errors.StorageError` -- never a wrong record and
never a foreign exception.
"""

from __future__ import annotations

import shutil

import pytest

from repro.common.errors import BlockFileError, SSTableError, WalCorruptionError
from repro.storage.blockfile import BlockFileManager
from repro.storage.kv.sstable import SSTableReader, write_sstable
from repro.storage.kv.wal import WriteAheadLog, replay
from tests.helpers import table_rows

# -- fixtures: one intact instance of each format -------------------------


def build_wal(path):
    wal = WriteAheadLog(path)
    records = []
    for i in range(24):
        key, value = f"key{i:03d}".encode(), f"value{i}".encode()
        if i % 5 == 4:
            wal.append([(key, None)])
            records.append((key, None))
        else:
            wal.append([(key, value)])
            records.append((key, value))
    wal.close()
    return records


def replayed(path):
    return [(key, value) for _, key, value in replay(path)[0]]


def build_sstable(path):
    entries = [
        (f"key{i:03d}".encode(), None if i % 7 == 6 else f"value{i}".encode())
        for i in range(40)
    ]
    write_sstable(path, iter(entries))
    return entries


def build_blockfile(path):
    manager = BlockFileManager(path, max_file_bytes=1 << 20)
    payloads = [f"block-payload-{i:04d}".encode() * 3 for i in range(16)]
    for payload in payloads:
        manager.append(payload)
    manager.close()
    return payloads


# -- WAL -------------------------------------------------------------------


def test_wal_truncated_at_every_offset(tmp_path):
    source = tmp_path / "wal.log"
    records = build_wal(source)
    raw = source.read_bytes()
    assert replayed(source) == records
    victim = tmp_path / "torn.log"
    for cut in range(len(raw)):
        victim.write_bytes(raw[:cut])
        survived = replayed(victim)
        assert survived == records[: len(survived)], f"cut at {cut}"


def test_wal_flip_at_every_offset(tmp_path):
    source = tmp_path / "wal.log"
    records = build_wal(source)
    raw = source.read_bytes()
    victim = tmp_path / "flipped.log"
    detected = 0
    for position in range(len(raw)):
        mutated = bytearray(raw)
        mutated[position] ^= 0xFF
        victim.write_bytes(bytes(mutated))
        try:
            survived = replayed(victim)
        except WalCorruptionError:
            detected += 1
            continue
        # Undetected flips must only ever shorten the log (a flip in the
        # final record's header can masquerade as a crash-torn tail).
        assert survived == records[: len(survived)], f"flip at {position}"
    assert detected > 0


# -- SSTable ---------------------------------------------------------------


def test_sstable_truncated_at_every_offset(tmp_path):
    source = tmp_path / "table.sst"
    build_sstable(source)
    raw = source.read_bytes()
    SSTableReader(source)  # sanity: intact table loads
    victim = tmp_path / "torn.sst"
    for cut in range(len(raw)):
        victim.write_bytes(raw[:cut])
        with pytest.raises(SSTableError):
            SSTableReader(victim)


def test_sstable_flip_in_body_always_detected(tmp_path):
    source = tmp_path / "table.sst"
    build_sstable(source)
    raw = source.read_bytes()
    body_end = len(raw) - 32  # footer struct is 8+8+8+4+8 bytes wide
    victim = tmp_path / "flipped.sst"
    for position in range(body_end):
        mutated = bytearray(raw)
        mutated[position] ^= 0xFF
        victim.write_bytes(bytes(mutated))
        with pytest.raises(SSTableError):
            SSTableReader(victim)


def test_sstable_footer_magic_and_crc_flips_detected(tmp_path):
    source = tmp_path / "table.sst"
    build_sstable(source)
    raw = source.read_bytes()
    victim = tmp_path / "flipped.sst"
    for position in [len(raw) - 1, len(raw) - 8, len(raw) - 9, len(raw) - 12]:
        mutated = bytearray(raw)
        mutated[position] ^= 0xFF
        victim.write_bytes(bytes(mutated))
        with pytest.raises(SSTableError):
            SSTableReader(victim)


def test_sstable_intact_reload_round_trips(tmp_path):
    source = tmp_path / "table.sst"
    entries = build_sstable(source)
    reader = SSTableReader(source)
    assert table_rows(reader) == entries


# -- block files -----------------------------------------------------------


def scan_blockfiles(directory):
    manager = BlockFileManager(directory, max_file_bytes=1 << 20)
    try:
        return [payload for _, payload in manager.scan_records()]
    finally:
        manager.close()


def test_blockfile_truncated_at_every_offset(tmp_path):
    source = tmp_path / "blocks"
    payloads = build_blockfile(source)
    block_file = source / "blockfile_000000"
    raw = block_file.read_bytes()
    assert scan_blockfiles(source) == payloads
    victim_dir = tmp_path / "torn"
    for cut in range(len(raw)):
        shutil.rmtree(victim_dir, ignore_errors=True)
        victim_dir.mkdir()
        (victim_dir / "blockfile_000000").write_bytes(raw[:cut])
        survived = scan_blockfiles(victim_dir)
        assert survived == payloads[: len(survived)], f"cut at {cut}"


def test_blockfile_flip_at_every_offset(tmp_path):
    source = tmp_path / "blocks"
    payloads = build_blockfile(source)
    block_file = source / "blockfile_000000"
    raw = block_file.read_bytes()
    victim_dir = tmp_path / "flipped"
    detected = 0
    for position in range(len(raw)):
        shutil.rmtree(victim_dir, ignore_errors=True)
        victim_dir.mkdir()
        mutated = bytearray(raw)
        mutated[position] ^= 0xFF
        (victim_dir / "blockfile_000000").write_bytes(bytes(mutated))
        try:
            survived = scan_blockfiles(victim_dir)
        except BlockFileError:
            detected += 1
            continue
        assert survived == payloads[: len(survived)], f"flip at {position}"
    assert detected > 0


def test_blockfile_read_rejects_flipped_payload(tmp_path):
    source = tmp_path / "blocks"
    build_blockfile(source)
    manager = BlockFileManager(source, max_file_bytes=1 << 20)
    locations = [location for location, _ in manager.scan_records()]
    manager.close()
    block_file = source / "blockfile_000000"
    raw = bytearray(block_file.read_bytes())
    target = locations[3]
    raw[target.offset + 8 + 2] ^= 0x01  # one bit inside payload 3
    block_file.write_bytes(bytes(raw))
    manager = BlockFileManager(source, max_file_bytes=1 << 20)
    try:
        with pytest.raises(BlockFileError, match="checksum"):
            manager.read(target)
        manager.read(locations[2])  # neighbours stay readable
    finally:
        manager.close()
