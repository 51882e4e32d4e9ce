"""Block-location index: block number -> (file, offset, length).

Fabric's peer keeps a LevelDB "block index" so a block can be fetched
without scanning block files.  Ours is an append-only index file with
fixed-size records, rebuilt into memory on open.

Record layout (little-endian): ``block_num:u64  file_num:u32  offset:u64
length:u32  crc32:u32`` -- 28 bytes per block, the CRC covering the
first 24.  A torn or corrupt *final* record is dropped on load (crash
mid-append); damage anywhere else raises
:class:`~repro.common.errors.BlockFileError`, which the block store
answers by rebuilding the index from the block files themselves -- the
index is entirely derived data.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

from repro.common.errors import BlockFileError
from repro.faults.fs import REAL_FS, FileSystem

_BODY = struct.Struct("<QIQI")
_RECORD_SIZE = _BODY.size + 4  # body + crc32


@dataclass(frozen=True)
class BlockLocation:
    """Where a serialized block lives on the simulated file system."""

    file_num: int
    offset: int
    length: int


class BlockIndex:
    """Persistent, append-only mapping of block number to location.

    Block numbers are dense (0, 1, 2, ...) because the chain only appends,
    so the in-memory form is a plain list.
    """

    def __init__(
        self,
        path: str | Path,
        fsync: bool = False,
        fs: FileSystem = REAL_FS,
    ) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fs = fs
        self._fsync = fsync
        self._locations: List[BlockLocation] = []
        self._load()
        self._file = fs.open(self.path, "ab")

    def _load(self) -> None:
        if not self.path.exists():
            return
        data = self.path.read_bytes()
        offset = 0
        while offset + _RECORD_SIZE <= len(data):
            body = data[offset : offset + _BODY.size]
            (stored_crc,) = struct.unpack_from(
                "<I", data, offset + _BODY.size
            )
            is_tail = offset + _RECORD_SIZE == len(data)
            if zlib.crc32(body) != stored_crc:
                if is_tail:
                    break  # crash-torn final record: drop it
                raise BlockFileError(
                    f"block index checksum mismatch at offset {offset}"
                )
            block_num, file_num, block_offset, length = _BODY.unpack(body)
            if block_num != len(self._locations):
                raise BlockFileError(
                    f"block index out of sequence: expected {len(self._locations)}, "
                    f"found {block_num}"
                )
            self._locations.append(BlockLocation(file_num, block_offset, length))
            offset += _RECORD_SIZE
        # Trailing partial record (< _RECORD_SIZE bytes) is a torn tail:
        # silently ignored, the caller re-appends from the block files.

    def _encode(self, block_num: int, location: BlockLocation) -> bytes:
        body = _BODY.pack(
            block_num, location.file_num, location.offset, location.length
        )
        return body + struct.pack("<I", zlib.crc32(body))

    def append(self, location: BlockLocation) -> int:
        """Record the location of the next block; returns its block number."""
        block_num = len(self._locations)
        self._locations.append(location)
        self._file.write(self._encode(block_num, location))
        return block_num

    def lookup(self, block_num: int) -> Optional[BlockLocation]:
        """Location of ``block_num`` or ``None`` beyond the index."""
        if 0 <= block_num < len(self._locations):
            return self._locations[block_num]
        return None

    @property
    def height(self) -> int:
        """Number of indexed blocks (== chain height)."""
        return len(self._locations)

    def truncate_to(self, height: int) -> None:
        """Drop every record past ``height`` (index got ahead of the block
        files in a crash).  Rewritten atomically via a temp file."""
        if height > len(self._locations):
            raise BlockFileError(
                f"cannot truncate index to {height}, only {len(self._locations)} "
                "records present"
            )
        if height == len(self._locations):
            return
        self._file.flush()
        self._file.close()
        self._locations = self._locations[:height]
        tmp_path = self.path.with_name(self.path.name + ".tmp")
        handle = self._fs.open(tmp_path, "wb")
        try:
            for block_num, location in enumerate(self._locations):
                handle.write(self._encode(block_num, location))
            if self._fsync:
                self._fs.fsync(handle)
        finally:
            handle.close()
        self._fs.replace(tmp_path, self.path)
        self._file = self._fs.open(self.path, "ab")

    def sync(self) -> None:
        if self._fsync:
            self._fs.fsync(self._file)
        else:
            self._file.flush()

    def close(self) -> None:
        if not self._file.closed:
            self._file.flush()
            self._file.close()
