"""Immutable sorted-string-table files for the LSM store.

An SSTable holds a sorted run of ``(key, op, value)`` entries flushed from
a memtable (or produced by compaction).  The file layout is:

```
+-------------------+      entry := key_len:uvarint  key  op:u8
|   data section    |               [value_len:uvarint  value]   (op == PUT)
|   (sorted entries)|
+-------------------+      index entry := key_len:uvarint  key  offset:uvarint
|   sparse index    |
+-------------------+
|   bloom filter    |      (hash_count:u32  bit_count:u32  bits)
+-------------------+      footer := index_offset:u64  bloom_offset:u64
|   footer (36 B)   |                entry_count:u64  crc32:u32  magic:u64
+-------------------+
```

The sparse index records every ``INDEX_STRIDE``-th key with its byte offset
into the data section.  Readers keep the sparse index and the Bloom
filter in memory; a point lookup consults the Bloom filter first
("definitely absent" answers never touch the data section), then
binary-searches the index and scans forward at most one stride.
Tombstones are stored so newer tables can shadow older ones.

Durability: tables are written to a ``.tmp`` sibling and atomically
renamed into place, so a crash mid-write can never leave a torn ``.sst``
visible -- only a stray temp file the LSM store deletes on open.  The
footer's CRC32 covers every byte before it, so any surviving corruption
(bit rot, tampering) is caught at open as a typed
:class:`~repro.common.errors.SSTableError`.
"""

from __future__ import annotations

import bisect
import struct
import zlib
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

from repro.common.codec import read_uvarint, write_uvarint
from repro.common.errors import SSTableError
from repro.faults.fs import REAL_FS, FileSystem
from repro.storage.kv.api import OP_DELETE, OP_PUT
from repro.storage.kv.bloom import BloomFilter

MAGIC = 0x53535442_52455054  # "SSTB" "REPT" (v3: content CRC in footer)
INDEX_STRIDE = 16
BLOOM_BITS_PER_KEY = 10
_FOOTER = struct.Struct("<QQQIQ")

#: Suffix of in-progress table writes; never loaded, deleted on open.
TMP_SUFFIX = ".tmp"


def write_sstable(
    path: str | Path,
    entries: Iterator[Tuple[bytes, Optional[bytes]]],
    fs: FileSystem = REAL_FS,
    fsync: bool = False,
) -> int:
    """Write sorted ``(key, value-or-None)`` entries to ``path``.

    ``None`` values become tombstones.  Returns the number of entries
    written.  Keys must arrive in strictly increasing order.  The table
    is staged as ``path + ".tmp"`` and renamed into place, optionally
    fsynced first, so ``path`` either has the complete old content or the
    complete new content -- never a torn mix.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    data = bytearray()
    index: List[Tuple[bytes, int]] = []
    all_keys: List[bytes] = []
    count = 0
    previous_key: Optional[bytes] = None
    for key, value in entries:
        if previous_key is not None and key <= previous_key:
            raise SSTableError(
                f"keys out of order while writing {path.name}: "
                f"{previous_key!r} then {key!r}"
            )
        previous_key = key
        all_keys.append(key)
        if count % INDEX_STRIDE == 0:
            index.append((key, len(data)))
        write_uvarint(len(key), data)
        data.extend(key)
        if value is None:
            data.append(OP_DELETE)
        else:
            data.append(OP_PUT)
            write_uvarint(len(value), data)
            data.extend(value)
        count += 1

    index_offset = len(data)
    for key, offset in index:
        write_uvarint(len(key), data)
        data.extend(key)
        write_uvarint(offset, data)
    bloom_offset = len(data)
    data.extend(BloomFilter.build(all_keys, bits_per_key=BLOOM_BITS_PER_KEY).to_bytes())
    crc = zlib.crc32(data)
    data.extend(_FOOTER.pack(index_offset, bloom_offset, count, crc, MAGIC))
    tmp_path = path.with_name(path.name + TMP_SUFFIX)
    handle = fs.open(tmp_path, "wb")
    try:
        handle.write(data)
        if fsync:
            fs.fsync(handle)
    finally:
        handle.close()
    fs.replace(tmp_path, path)
    return count


class SSTableReader:
    """Read-only view over one SSTable file.

    The whole file is read once at open, so the footer CRC covers every
    byte before anything is parsed; the verified bytes then stay in
    memory and every lookup or scan decodes from them -- LevelDB's block
    cache at our scale.  The file is never opened again.
    """

    def __init__(self, path: str | Path, fs: FileSystem = REAL_FS) -> None:
        self.path = Path(path)
        handle = None
        try:
            handle = fs.open(self.path, "rb")
            raw = handle.read()
        except OSError as exc:
            # An injected or genuine I/O fault (EIO) while loading the
            # table surfaces as the same typed error as corruption: the
            # caller's quarantine/degrade handling covers both.
            raise SSTableError(f"{self.path.name}: read failed: {exc}") from exc
        finally:
            if handle is not None:
                handle.close()
        if len(raw) < _FOOTER.size:
            raise SSTableError(f"{self.path.name}: file too small for footer")
        index_offset, bloom_offset, count, crc, magic = _FOOTER.unpack_from(
            raw, len(raw) - _FOOTER.size
        )
        if magic != MAGIC:
            raise SSTableError(f"{self.path.name}: bad magic {magic:#x}")
        body = raw[: len(raw) - _FOOTER.size]
        if zlib.crc32(body) != crc:
            raise SSTableError(
                f"{self.path.name}: content checksum mismatch (corrupt table)"
            )
        if not index_offset <= bloom_offset <= len(raw) - _FOOTER.size:
            raise SSTableError(f"{self.path.name}: section offsets out of range")
        self.entry_count = count
        self._data_end = index_offset
        self._index_keys: List[bytes] = []
        self._index_offsets: List[int] = []
        self._parse_index(raw, index_offset, bloom_offset)
        try:
            self.bloom = BloomFilter.from_bytes(
                raw[bloom_offset : len(raw) - _FOOTER.size]
            )
        except (ValueError, struct.error) as exc:
            raise SSTableError(f"{self.path.name}: bad bloom section: {exc}") from exc
        self._raw = raw

    def _parse_index(self, raw: bytes, index_offset: int, end: int) -> None:
        offset = index_offset
        while offset < end:
            key_len, offset = read_uvarint(raw, offset)
            key = raw[offset : offset + key_len]
            offset += key_len
            data_offset, offset = read_uvarint(raw, offset)
            self._index_keys.append(key)
            self._index_offsets.append(data_offset)

    # -- entry decoding --------------------------------------------------

    def _read_entry(
        self, buf: bytes, offset: int
    ) -> Tuple[bytes, Optional[bytes], int]:
        """Decode the entry at ``offset``; return ``(key, value, next_offset)``."""
        key_len, offset = read_uvarint(buf, offset)
        key = buf[offset : offset + key_len]
        offset += key_len
        op = buf[offset]
        offset += 1
        if op == OP_PUT:
            value_len, offset = read_uvarint(buf, offset)
            value: Optional[bytes] = buf[offset : offset + value_len]
            offset += value_len
        elif op == OP_DELETE:
            value = None
        else:
            raise SSTableError(f"{self.path.name}: unknown op {op} at {offset}")
        return key, value, offset

    def _seek_offset(self, key: bytes) -> int:
        """Data offset of the last index entry with key <= ``key`` (or 0)."""
        if not self._index_keys:
            return self._data_end  # empty table: start == end
        position = bisect.bisect_right(self._index_keys, key) - 1
        if position < 0:
            return self._index_offsets[0]
        return self._index_offsets[position]

    # -- public API -------------------------------------------------------

    def may_contain(self, key: bytes) -> bool:
        """Bloom pre-check: ``False`` means definitely absent (no data
        access needed); ``True`` means the data section must be consulted."""
        return self.bloom.may_contain(key)

    def lookup(self, key: bytes) -> Tuple[bool, Optional[bytes]]:
        """Return ``(found, value)``; ``(True, None)`` means a tombstone."""
        if not self.bloom.may_contain(key):
            return False, None  # definitely absent, no data access
        if not self._index_keys or key < self._index_keys[0]:
            return False, None
        buf = self._raw
        offset = self._seek_offset(key)
        while offset < self._data_end:
            entry_key, value, offset = self._read_entry(buf, offset)
            if entry_key == key:
                return True, value
            if entry_key > key:
                return False, None
        return False, None

    def scan(
        self, start: Optional[bytes], end: Optional[bytes]
    ) -> Iterator[Tuple[bytes, Optional[bytes]]]:
        """Yield ``(key, value-or-tombstone-None)`` within ``[start, end)``."""
        buf = self._raw
        offset = 0 if start is None else self._seek_offset(start)
        while offset < self._data_end:
            key, value, offset = self._read_entry(buf, offset)
            if start is not None and key < start:
                continue
            if end is not None and key >= end:
                return
            yield bytes(key), None if value is None else bytes(value)

    @property
    def smallest_key(self) -> Optional[bytes]:
        return self._index_keys[0] if self._index_keys else None
