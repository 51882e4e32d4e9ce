"""Immutable sorted-string-table files for the LSM store.

An SSTable holds a sorted run of ``(key, op, value)`` entries flushed from
a memtable (or produced by compaction).  The file layout is:

```
+-------------------+      entry := key_len:uvarint  key  op:u8
|   data section    |               [value_len:uvarint  value]   (op == PUT)
|   (sorted entries)|
+-------------------+
|   (index section) |      empty: index_offset == bloom_offset
+-------------------+
|   bloom filter    |      (hash_count:u32  bit_count:u32  bits)
+-------------------+      footer := index_offset:u64  bloom_offset:u64
|   footer (36 B)   |                entry_count:u64  crc32:u32  magic:u64
+-------------------+
```

A reader holds the whole verified file in memory, so nothing on disk helps
it seek: the first read of a table decodes its data section once into a
sorted key list and a parallel value list, and every ``lookup`` and ``scan``
after that is a ``bisect`` into them.  The index section is where tables
written up to PR 21 carry a sparse key -> offset index; it is still covered
by the CRC and never parsed, and the writer leaves it empty.  The Bloom
filter lets a point read skip a table -- and its decode -- altogether.
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
from repro.common.errors import CodecError, SSTableError
from repro.faults.fs import REAL_FS, FileSystem
from repro.storage.kv.api import OP_DELETE, OP_PUT
from repro.storage.kv.bloom import BloomFilter

MAGIC = 0x53535442_52455054  # "SSTB" "REPT" (v3: content CRC in footer)
BLOOM_BITS_PER_KEY = 10
_FOOTER = struct.Struct("<QQQIQ")

#: A table's decoded data section: its keys, sorted, and each key's value
#: (``None`` for a tombstone) at the same position.
_Decoded = Tuple[List[bytes], List[Optional[bytes]]]

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
        write_uvarint(len(key), data)
        data.extend(key)
        if value is None:
            data.append(OP_DELETE)
        else:
            data.append(OP_PUT)
            write_uvarint(len(value), data)
            data.extend(value)
        count += 1

    index_offset = bloom_offset = len(data)  # no index section: see module doc
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
    byte before anything is parsed; the file is never opened again.  The
    verified data section is decoded by the first ``lookup`` or ``window``
    and replaced by the result -- LevelDB's block cache at our
    scale, already parsed.
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
            # caller's quarantine handling covers both.
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
        if not index_offset <= bloom_offset <= len(body):
            raise SSTableError(f"{self.path.name}: section offsets out of range")
        self.entry_count = count
        try:
            self.bloom = BloomFilter.from_bytes(body[bloom_offset:])
        except (ValueError, struct.error) as exc:
            raise SSTableError(f"{self.path.name}: bad bloom section: {exc}") from exc
        #: The data section's bytes until the first read, its entries after.
        self._table: bytes | _Decoded = body[:index_offset]

    def _decoded(self) -> _Decoded:
        table = self._table
        if isinstance(table, bytes):
            table = self._table = self._decode(table)
        return table

    def _decode(self, data: bytes) -> _Decoded:
        """One pass over the data section; lengths under 128 (one varint
        byte, nearly all of them) are read without a call."""
        keys: List[bytes] = []
        values: List[Optional[bytes]] = []
        offset, end = 0, len(data)
        try:
            while offset < end:
                length = data[offset]
                offset += 1
                if length >= 0x80:
                    length, offset = read_uvarint(data, offset - 1)
                keys.append(data[offset : offset + length])
                offset += length
                op = data[offset]
                offset += 1
                if op == OP_PUT:
                    length = data[offset]
                    offset += 1
                    if length >= 0x80:
                        length, offset = read_uvarint(data, offset - 1)
                    values.append(data[offset : offset + length])
                    offset += length
                elif op == OP_DELETE:
                    values.append(None)
                else:
                    raise SSTableError(
                        f"{self.path.name}: unknown op {op} at {offset - 1}"
                    )
        except (IndexError, CodecError):
            offset = end + 1  # cut short inside a length or before the op byte
        if offset != end:  # ... or inside a key or value: one complaint for all
            raise SSTableError(f"{self.path.name}: data section ends inside an entry")
        return keys, values

    # -- public API -------------------------------------------------------

    def lookup(self, key: bytes) -> Tuple[bool, Optional[bytes]]:
        """Return ``(found, value)``; ``(True, None)`` means a tombstone.

        Exact, and does not consult :attr:`bloom`: that is the caller's
        pre-check for skipping the table.
        """
        keys, values = self._decoded()
        position = bisect.bisect_left(keys, key)
        if position < len(keys) and keys[position] == key:
            return True, values[position]
        return False, None

    def window(self, start: Optional[bytes], end: Optional[bytes]) -> _Decoded:
        """The keys with ``start <= key < end`` and their values (``None``
        for a tombstone), as two slices of the decoded lists."""
        keys, values = self._decoded()
        lo = 0 if start is None else bisect.bisect_left(keys, start)
        hi = len(keys) if end is None else bisect.bisect_left(keys, end)
        return keys[lo:hi], values[lo:hi]
