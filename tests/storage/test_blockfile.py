"""Tests for block files and the block-location index."""

from __future__ import annotations

import pytest

from repro.common.errors import BlockFileError
from repro.storage.blockfile import BlockFileManager
from repro.storage.blockindex import BlockIndex, BlockLocation


class TestBlockFileManager:
    def test_append_read_round_trip(self, tmp_path):
        manager = BlockFileManager(tmp_path)
        payload = b'{"block": 0}'
        location = manager.read(manager_location := manager.append(payload))
        assert location == payload
        assert manager_location.length == len(payload)
        manager.close()

    def test_multiple_blocks_sequential_offsets(self, tmp_path):
        manager = BlockFileManager(tmp_path)
        loc1 = manager.append(b"block-one")
        loc2 = manager.append(b"block-two")
        assert loc2.offset > loc1.offset
        assert manager.read(loc1) == b"block-one"
        assert manager.read(loc2) == b"block-two"
        manager.close()

    def test_rollover_creates_new_file(self, tmp_path):
        manager = BlockFileManager(tmp_path, max_file_bytes=64)
        locations = [manager.append(b"x" * 40) for _ in range(4)]
        assert manager._current_num >= 1
        file_nums = {loc.file_num for loc in locations}
        assert len(file_nums) > 1
        for location in locations:
            assert manager.read(location) == b"x" * 40
        manager.close()

    def test_reopen_appends_to_latest_file(self, tmp_path):
        manager = BlockFileManager(tmp_path, max_file_bytes=64)
        loc1 = manager.append(b"a" * 50)  # file 0 now at 54 bytes
        manager.append(b"b" * 50)  # file 0 over the limit (108 bytes)
        manager.append(b"c" * 50)  # rolls to file 1
        manager.close()
        reopened = BlockFileManager(tmp_path, max_file_bytes=64)
        assert reopened._current_num >= 1
        loc3 = reopened.append(b"c" * 10)
        assert reopened.read(loc1) == b"a" * 50
        assert reopened.read(loc3) == b"c" * 10
        reopened.close()

    def test_empty_payload_rejected(self, tmp_path):
        manager = BlockFileManager(tmp_path)
        with pytest.raises(BlockFileError):
            manager.append(b"")
        manager.close()

    def test_read_bad_location_raises(self, tmp_path):
        manager = BlockFileManager(tmp_path)
        manager.append(b"data")
        with pytest.raises(BlockFileError):
            manager.read(BlockLocation(file_num=9, offset=0, length=4))
        manager.close()

    def test_length_mismatch_detected(self, tmp_path):
        manager = BlockFileManager(tmp_path)
        location = manager.append(b"data")
        bad = BlockLocation(location.file_num, location.offset, location.length + 1)
        with pytest.raises(BlockFileError, match="length mismatch"):
            manager.read(bad)
        manager.close()

    def test_total_bytes(self, tmp_path):
        manager = BlockFileManager(tmp_path)
        manager.append(b"0123456789")
        manager.sync()
        assert manager.total_bytes() >= 10
        manager.close()


class TestBlockIndex:
    def test_append_assigns_sequential_numbers(self, tmp_path):
        index = BlockIndex(tmp_path / "index")
        assert index.append(BlockLocation(0, 0, 10)) == 0
        assert index.append(BlockLocation(0, 14, 20)) == 1
        assert index.height == 2
        index.close()

    def test_lookup(self, tmp_path):
        index = BlockIndex(tmp_path / "index")
        index.append(BlockLocation(0, 0, 10))
        assert index.lookup(0) == BlockLocation(0, 0, 10)
        assert index.lookup(1) is None
        assert index.lookup(-1) is None
        index.close()

    def test_persistence_across_reopen(self, tmp_path):
        index = BlockIndex(tmp_path / "index")
        index.append(BlockLocation(0, 0, 10))
        index.append(BlockLocation(1, 5, 7))
        index.close()
        reopened = BlockIndex(tmp_path / "index")
        assert reopened.height == 2
        assert reopened.lookup(1) == BlockLocation(1, 5, 7)
        reopened.append(BlockLocation(1, 16, 9))
        assert reopened.height == 3
        reopened.close()

    def test_torn_tail_dropped_on_load(self, tmp_path):
        path = tmp_path / "index"
        index = BlockIndex(path)
        index.append(BlockLocation(0, 0, 10))
        index.append(BlockLocation(0, 14, 10))
        index.close()
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        reopened = BlockIndex(path)
        assert reopened.height == 1
        reopened.close()
