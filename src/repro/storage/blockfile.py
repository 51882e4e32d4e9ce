"""Append-only ledger block files with size-based rollover.

The Fabric peer stores serialized blocks back to back in numbered files
(``blockfile_000000``, ``blockfile_000001``, ...), rolling to a new file
when the current one passes a size threshold.  Reading a block means
seeking to its recorded offset and reading its payload -- the actual disk
IO whose cost the paper's query models are designed to avoid.

Each stored record is ``length:u32  crc32:u32`` followed by the payload,
so torn tails *and* silent payload corruption are detected independently
of the index.  :meth:`BlockFileManager.scan_records` walks records
forward from any offset, which is how the block store rebuilds a missing
or torn block index straight from the files.

A block read is one positional read (``pread``) of the whole record on a
per-file descriptor opened once and kept until :meth:`close`: ``pread``
carries its own offset, so reads neither seek nor disturb the append
handle.
"""

from __future__ import annotations

import struct
import warnings
import zlib
from pathlib import Path
from typing import IO, Dict, Iterator, Optional, Tuple

from repro.common.errors import BlockFileError
from repro.faults.fs import REAL_FS, FileSystem
from repro.storage.blockindex import BlockLocation

_HEADER = struct.Struct("<II")
_FILE_PREFIX = "blockfile_"


def _parse_file_num(file: Path) -> Optional[int]:
    """Numeric suffix of a block file name, or ``None`` for a foreign
    entry (``blockfile_backup``, editor droppings...) that merely shares
    the prefix."""
    suffix = file.name[len(_FILE_PREFIX) :]
    if not suffix.isdigit():
        return None
    return int(suffix)


def _block_file(directory: Path, file_num: int) -> Path:
    return directory / f"{_FILE_PREFIX}{file_num:06d}"


def latest_file_num(directory: Path) -> int:
    """Highest *numeric* block file number in ``directory`` (0 when none).

    Parses the suffix instead of trusting lexicographic order --
    ``blockfile_1000000`` sorts before ``blockfile_999999`` as a
    string -- and skips (with a warning) foreign entries that would
    otherwise crash the open with ``ValueError``.
    """
    latest = 0
    for file in directory.glob(f"{_FILE_PREFIX}*"):
        file_num = _parse_file_num(file)
        if file_num is None:
            warnings.warn(
                f"ignoring foreign entry {file.name!r} in block file "
                f"directory {directory}",
                stacklevel=2,
            )
            continue
        latest = max(latest, file_num)
    return latest


def scan_files(
    directory: Path, file_num: int, offset: int, last_file_num: int
) -> Iterator[Tuple[BlockLocation, bytes]]:
    """Walk intact records forward from ``(file_num, offset)`` through
    ``last_file_num``, reading only: see
    :meth:`BlockFileManager.scan_records`."""
    while True:
        file_path = _block_file(directory, file_num)
        # Read from ``offset`` on, not the whole file: the block store
        # re-verifies only its last indexed record on every open.
        # Raw read-mode open, off the read-fault seam, so recovery
        # does not consume a test's ``fail_reads`` schedule.
        try:
            with open(file_path, "rb") as handle:
                handle.seek(offset)
                data = handle.read()
        except FileNotFoundError:
            return
        is_last_file = file_num == last_file_num
        position = 0  # into ``data``, which starts at ``offset``
        while position < len(data):
            start = offset + position
            tail_ok = is_last_file  # only the live tail may be torn
            if position + _HEADER.size > len(data):
                if tail_ok:
                    return
                raise BlockFileError(
                    f"torn record header mid-chain at "
                    f"{file_path.name}:{start}"
                )
            length, crc = _HEADER.unpack_from(data, position)
            end = position + _HEADER.size + length
            if end > len(data):
                if tail_ok:
                    return
                raise BlockFileError(
                    f"torn record payload mid-chain at "
                    f"{file_path.name}:{start}"
                )
            payload = data[position + _HEADER.size : end]
            if zlib.crc32(payload) != crc:
                if tail_ok and end == len(data):
                    return  # corrupt final record: crash-torn tail
                raise BlockFileError(
                    f"record checksum mismatch at {file_path.name}:{start}"
                )
            yield (
                BlockLocation(file_num=file_num, offset=start, length=length),
                payload,
            )
            position = end
        if is_last_file:
            return
        file_num += 1
        offset = 0


class BlockFileManager:
    """Manages the directory of append-only block files."""

    def __init__(
        self,
        path: str | Path,
        max_file_bytes: int = 4 * 1024 * 1024,
        fsync: bool = False,
        fs: FileSystem = REAL_FS,
    ) -> None:
        if max_file_bytes <= 0:
            raise ValueError(f"max_file_bytes must be positive, got {max_file_bytes}")
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self._max_file_bytes = max_file_bytes
        self._fs = fs
        self._fsync = fsync
        #: One read handle per block file ever read, kept until
        #: :meth:`close`.  Never evicted: roll-over and tail truncation
        #: keep the inode, so a cached descriptor never goes stale.
        self._readers: Dict[int, IO[bytes]] = {}
        self._current_num = latest_file_num(self.path)
        self._writer = fs.open(self._file_path(self._current_num), "ab")

    def _file_path(self, file_num: int) -> Path:
        return _block_file(self.path, file_num)

    def append(self, payload: bytes) -> BlockLocation:
        """Append one serialized block; returns its location."""
        if not payload:
            raise BlockFileError("refusing to append an empty block payload")
        crc = zlib.crc32(payload)
        if self._writer.tell() >= self._max_file_bytes:
            self._roll_over()
        offset = self._writer.tell()
        self._writer.write(_HEADER.pack(len(payload), crc))
        self._writer.write(payload)
        return BlockLocation(
            file_num=self._current_num, offset=offset, length=len(payload)
        )

    def _roll_over(self) -> None:
        self._writer.flush()
        self._writer.close()
        self._current_num += 1
        self._writer = self._fs.open(self._file_path(self._current_num), "ab")

    def read(self, location: BlockLocation) -> bytes:
        """Read the serialized block payload at ``location``.

        One positional read of the whole record through the filesystem
        seam, so block retrieval has genuine IO cost, as on a Fabric
        peer, and injected read faults reach it.  The record's length is
        checked against the index and its payload against the record's
        CRC32 before anything is returned, so a truncated file or a
        flipped byte surfaces as :class:`BlockFileError`, never a
        silently wrong block.
        """
        file_num, length = location.file_num, location.length
        try:
            if file_num == self._current_num:
                # The append handle buffers: only a flush makes the tail
                # record preadable.
                self._writer.flush()
            handle = self._readers.get(file_num)
            if handle is None:
                handle = self._readers[file_num] = self._fs.open(
                    self._file_path(file_num), "rb"
                )
            record = self._fs.pread(handle, _HEADER.size + length, location.offset)
        except FileNotFoundError:
            name = self._file_path(file_num).name
            raise BlockFileError(f"block file {name} does not exist") from None
        except OSError as exc:
            # Injected or genuine fault (EIO, EMFILE): typed, never a
            # silently wrong block.
            raise self._read_error("read failed", location, f": {exc}") from exc
        if len(record) < _HEADER.size:
            raise self._read_error("truncated block header", location)
        stored_length, crc = _HEADER.unpack_from(record)
        if stored_length != length:
            raise self._read_error(
                "length mismatch",
                location,
                f": index says {length}, file says {stored_length}",
            )
        payload = record[_HEADER.size :]
        if len(payload) != length:
            raise self._read_error("truncated block payload", location)
        if zlib.crc32(payload) != crc:
            raise self._read_error("block payload checksum mismatch", location)
        return payload

    def _read_error(
        self, what: str, location: BlockLocation, detail: str = ""
    ) -> BlockFileError:
        name = self._file_path(location.file_num).name
        return BlockFileError(f"{what} at {name}:{location.offset}{detail}")

    # -- recovery ---------------------------------------------------------

    def scan_records(
        self, file_num: int = 0, offset: int = 0
    ) -> Iterator[Tuple[BlockLocation, bytes]]:
        """Walk intact records forward from ``(file_num, offset)``.

        Yields ``(location, payload)`` for every record whose header and
        checksum verify.  A torn or corrupt record *at the tail of the
        last file* ends the scan cleanly (crash-truncation semantics);
        the same damage with data after it raises :class:`BlockFileError`
        because bytes beyond the corruption cannot be trusted.
        """
        self._writer.flush()
        return scan_files(self.path, file_num, offset, self._current_num)

    def cut_after(self, intact: Optional[BlockLocation]) -> None:
        """Cut a torn record off the last file: whatever follows
        ``intact``, the last record a scan verified (``None``: no record,
        or one in an earlier file, so the whole last file).  The file's
        end is the append handle's position, so an intact file costs no
        read."""
        end = 0
        if intact is not None and intact.file_num == self._current_num:
            end = intact.offset + _HEADER.size + intact.length
        if self._writer.tell() > end:
            self.truncate_tail(BlockLocation(self._current_num, end, 0))

    def truncate_tail(self, location: BlockLocation) -> None:
        """Cut the *last* block file back so ``location`` is its next
        append position (drops a torn record left by a crash)."""
        if location.file_num != self._current_num:
            raise BlockFileError(
                f"refusing to truncate non-tail file {location.file_num}"
            )
        self._writer.flush()
        self._writer.close()
        file_path = self._file_path(location.file_num)
        # "r+" passes through the seam untouched (only write/append
        # modes are buffered) but still hits the dead-filesystem check.
        with self._fs.open(file_path, "r+b") as handle:
            handle.truncate(location.offset)
        self._writer = self._fs.open(file_path, "ab")

    def sync(self) -> None:
        if self._fsync:
            self._fs.fsync(self._writer)
        else:
            self._writer.flush()

    def close(self) -> None:
        if not self._writer.closed:
            self._writer.flush()
            self._writer.close()
        for handle in self._readers.values():
            handle.close()
        self._readers.clear()

    def total_bytes(self) -> int:
        """Total bytes across all block files (for storage-cost reporting)."""
        return sum(
            f.stat().st_size
            for f in self.path.glob(f"{_FILE_PREFIX}*")
            if _parse_file_num(f) is not None
        )
