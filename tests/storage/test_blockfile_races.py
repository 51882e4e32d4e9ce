"""Regression tests for the block-file manager's read path between
appends and the foreign-entry crash.

Two behaviours are pinned here:

* reads interleaved with appends see every appended record, through a
  visibility flush of the append handle and read descriptors cached per
  file across rollovers (both in :meth:`BlockFileManager.read`);
* ``_latest_file_num`` crashed at open with ``ValueError`` on any stray
  directory entry sharing the ``blockfile_`` prefix but lacking a
  numeric suffix (``blockfile_backup``), and trusted lexicographic glob
  order, which misorders ``blockfile_1000000`` vs ``blockfile_999999``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.common.errors import BlockFileError
from repro.faults.fs import FileSystem
from repro.storage.blockfile import BlockFileManager
from repro.storage.blockindex import BlockLocation


def _payload(i: int) -> bytes:
    return (f"block-{i:05d}-" + "x" * (i % 7) * 10).encode()


class TestForeignEntries:
    def test_stray_non_numeric_entry_is_skipped_with_warning(self, tmp_path):
        (tmp_path / "blockfile_000000").write_bytes(b"")
        (tmp_path / "blockfile_backup").write_bytes(b"not a block file")
        with pytest.warns(UserWarning, match="blockfile_backup"):
            manager = BlockFileManager(tmp_path)
        try:
            assert manager._current_num == 0
            location = manager.append(_payload(1))
            assert manager.read(location) == _payload(1)
        finally:
            manager.close()

    def test_latest_file_num_is_numeric_not_lexicographic(self, tmp_path):
        # Lexicographically blockfile_1000000 < blockfile_999999; the
        # numeric parse must still pick 1000000 as the live tail.
        (tmp_path / "blockfile_999999").write_bytes(b"")
        (tmp_path / "blockfile_1000000").write_bytes(b"")
        manager = BlockFileManager(tmp_path)
        try:
            assert manager._current_num == 1000000
        finally:
            manager.close()

    def test_total_bytes_ignores_foreign_entries(self, tmp_path):
        with pytest.warns(UserWarning):
            manager = BlockFileManager(tmp_path)
            try:
                manager.append(b"payload")
                manager.sync()
                real = manager.total_bytes()
                (tmp_path / "blockfile_backup").write_bytes(b"z" * 4096)
                assert manager.total_bytes() == real
                # Reopening next to the stray must not crash either.
                manager.close()
                BlockFileManager(tmp_path).close()
            finally:
                manager.close()


class CountingFS(FileSystem):
    """Real filesystem that records every read-mode open."""

    def __init__(self) -> None:
        self.read_opens: list[str] = []

    def open(self, path, mode):
        if mode == "rb":
            self.read_opens.append(Path(path).name)
        return super().open(path, mode)


class TestReadPath:
    def test_n_reads_over_f_files_open_f_handles(self, tmp_path):
        fs = CountingFS()
        manager = BlockFileManager(tmp_path, max_file_bytes=256, fs=fs)
        try:
            locations = [manager.append(_payload(i)) for i in range(40)]
            files = {location.file_num for location in locations}
            assert len(files) > 2  # rollovers happened
            # Shuffled, repeated, cross-file reads, sealed and current.
            for _ in range(3):
                for i in (7, 31, 7, 0, 39, 12, 25, 3, *range(40)):
                    assert manager.read(locations[i]) == _payload(i)
            assert sorted(fs.read_opens) == sorted(
                f"blockfile_{file_num:06d}" for file_num in files
            )
        finally:
            manager.close()

    def test_read_sees_unsynced_tail(self, tmp_path):
        manager = BlockFileManager(tmp_path)
        try:
            first = manager.append(_payload(0))
            assert manager.read(first) == _payload(0)
            # No sync(): the visibility flush must surface a record
            # appended after the descriptor was opened and cached.
            second = manager.append(_payload(1))
            assert manager.read(second) == _payload(1)
        finally:
            manager.close()

    def test_missing_file_raises(self, tmp_path):
        manager = BlockFileManager(tmp_path)
        try:
            ghost = BlockLocation(file_num=7, offset=0, length=4)
            with pytest.raises(BlockFileError, match="blockfile_000007 does not exist"):
                manager.read(ghost)
        finally:
            manager.close()

    def test_cached_descriptors_survive_rollover_and_truncate_tail(self, tmp_path):
        fs = CountingFS()
        manager = BlockFileManager(tmp_path, max_file_bytes=128, fs=fs)
        try:
            early = manager.append(_payload(0))
            assert manager.read(early) == _payload(0)  # caches file 0's handle
            locations = [manager.append(_payload(i)) for i in range(1, 12)]
            assert manager._current_num > 0
            assert manager.read(early) == _payload(0)  # file 0 is sealed now
            kept, dropped = locations[-2], locations[-1]
            assert kept.file_num == dropped.file_num == manager._current_num
            assert manager.read(dropped) == _payload(11)
            opens = list(fs.read_opens)
            manager.truncate_tail(dropped)
            assert manager.read(kept) == _payload(10)
            with pytest.raises(BlockFileError, match="truncated block header"):
                manager.read(dropped)
            # The next append lands where the dropped record was and is
            # read through the descriptor opened before the truncation.
            again = manager.append(_payload(99))
            assert again == BlockLocation(
                dropped.file_num, dropped.offset, len(_payload(99))
            )
            assert manager.read(again) == _payload(99)
            assert fs.read_opens == opens
        finally:
            manager.close()

    def test_damage_raises_the_typed_error_for_each_shape(self, tmp_path):
        manager = BlockFileManager(tmp_path)
        try:
            first = manager.append(_payload(1))
            last = manager.append(_payload(2))
            manager.sync()
            file_path = tmp_path / "blockfile_000000"
            intact = file_path.read_bytes()
            wrong = BlockLocation(first.file_num, first.offset, first.length - 1)
            with pytest.raises(
                BlockFileError,
                match=f"length mismatch at blockfile_000000:0: index says "
                f"{first.length - 1}, file says {first.length}",
            ):
                manager.read(wrong)
            file_path.write_bytes(intact[:-3])  # cut inside the last payload
            with pytest.raises(
                BlockFileError,
                match=f"truncated block payload at blockfile_000000:{last.offset}",
            ):
                manager.read(last)
            file_path.write_bytes(intact[: last.offset + 5])  # inside its header
            with pytest.raises(
                BlockFileError,
                match=f"truncated block header at blockfile_000000:{last.offset}",
            ):
                manager.read(last)
            assert manager.read(first) == _payload(1)
            flipped = bytearray(intact)
            flipped[first.offset + 8 + 3] ^= 0x40
            file_path.write_bytes(bytes(flipped))
            with pytest.raises(
                BlockFileError,
                match="block payload checksum mismatch at blockfile_000000:0",
            ):
                manager.read(first)
            assert manager.read(last) == _payload(2)
        finally:
            manager.close()


def test_readers_interleaved_with_a_committer_across_rollovers(tmp_path):
    """Between every two appends, ``read``/``file_size`` reach the file
    the committer is appending to and the files it has sealed (tiny
    ``max_file_bytes`` forces rollovers), all through the per-file read
    descriptors cached before the rollovers."""
    manager = BlockFileManager(tmp_path, max_file_bytes=2048)
    locations: list[BlockLocation] = [manager.append(_payload(0))]
    try:
        for i in range(1, 400):
            count = len(locations)
            assert manager.read(locations[i % count]) == _payload(i % count)
            # The newest record (current file) and the oldest (sealed once
            # the committer has rolled over).
            assert manager.read(locations[count - 1]) == _payload(count - 1)
            assert manager.read(locations[0]) == _payload(0)
            locations.append(manager.append(_payload(i)))
        assert manager._current_num > 0
        assert len(manager._readers) == manager._current_num + 1
    finally:
        manager.close()
