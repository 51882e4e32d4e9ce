"""Write-ahead log for the LSM store.

Every mutation is appended to the WAL before it touches the memtable, so a
crash between a write and the next SSTable flush loses nothing.  On open,
:func:`replay` feeds surviving records back into the memtable.

Record layout (all little-endian):

```
+----------------+----------------+------------------------+
| length: u32    | crc32: u32     | payload: length bytes  |
+----------------+----------------+------------------------+
payload := op:u8  key_len:uvarint  key  [value_len:uvarint  value]
```

A torn final record (truncated by a crash mid-append) is tolerated and
dropped, matching LevelDB's behaviour, and the log is cut back to its
last intact record before it opens for append; a checksum mismatch
anywhere else raises :class:`~repro.common.errors.WalCorruptionError`.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.common.codec import read_uvarint, write_uvarint
from repro.common.errors import WalCorruptionError
from repro.faults.fs import REAL_FS, FileSystem
from repro.storage.kv.api import OP_DELETE, OP_PUT, BatchItem

_HEADER = struct.Struct("<II")

#: One replayed record: ``(op, key, value)``, ``value`` ``None`` for a delete.
Record = Tuple[int, bytes, Optional[bytes]]

#: One-byte varints, by value: the length of a key or value shorter than
#: 128 bytes, and a record's op followed by such a key length.
_SHORT = [bytes((length,)) for length in range(128)]
_PUT_SHORT = [bytes((OP_PUT, length)) for length in range(128)]
_DELETE_SHORT = [bytes((OP_DELETE, length)) for length in range(128)]


def _encode_payload(op: int, key: bytes, value: Optional[bytes]) -> bytes:
    out = bytearray()
    out.append(op)
    write_uvarint(len(key), out)
    out.extend(key)
    if op == OP_PUT:
        assert value is not None
        write_uvarint(len(value), out)
        out.extend(value)
    return bytes(out)


def _decode_payload(payload: bytes) -> Record:
    if not payload:
        raise WalCorruptionError("empty WAL payload")
    op = payload[0]
    key_len, offset = read_uvarint(payload, 1)
    key = payload[offset : offset + key_len]
    offset += key_len
    if op == OP_PUT:
        value_len, offset = read_uvarint(payload, offset)
        value = payload[offset : offset + value_len]
        offset += value_len
    elif op == OP_DELETE:
        value = None
    else:
        raise WalCorruptionError(f"unknown WAL op {op}")
    if offset != len(payload):
        raise WalCorruptionError("WAL payload has trailing bytes")
    return op, key, value


class WriteAheadLog:
    """Append-only durability log with per-record CRC32 checksums.

    ``fsync=True`` (the ``fsync`` durability level) makes :meth:`sync`
    force records to the device; the default only flushes to the OS,
    which survives a process kill but not power loss.
    """

    def __init__(
        self,
        path: str | Path,
        fsync: bool = False,
        fs: FileSystem = REAL_FS,
        torn_at: Optional[int] = None,
    ) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fs = fs
        self._fsync = fsync
        if torn_at is not None:
            # Cut the torn tail :func:`replay` stopped at, so the records
            # appended next follow the last intact one and replay too.
            # "r+b" passes through the seam (only write/append modes are
            # buffered) but still hits the dead-filesystem check.
            with fs.open(self.path, "r+b") as handle:
                handle.truncate(torn_at)
        self._file = fs.open(self.path, "ab")
        self.record_count = 0

    def append(self, items: Sequence[BatchItem]) -> None:
        """Log ``(key, value)`` puts and ``(key, None)`` deletions, one
        record each, before they reach the memtable: the records are the
        ones item-by-item appends would write, handed to the file in one
        write.  A key and value shorter than 128 bytes take their length
        varints from a table; the bytes are :func:`_encode_payload`'s."""
        out = bytearray()
        pack, crc32 = _HEADER.pack, zlib.crc32
        for key, value in items:
            if value is None:
                if len(key) < 128:
                    payload = _DELETE_SHORT[len(key)] + key
                else:
                    payload = _encode_payload(OP_DELETE, key, None)
            elif len(key) < 128 and len(value) < 128:
                payload = b"".join((_PUT_SHORT[len(key)], key, _SHORT[len(value)], value))
            else:
                payload = _encode_payload(OP_PUT, key, value)
            out += pack(len(payload), crc32(payload))
            out += payload
        self._file.write(out)
        self.record_count += len(items)

    def sync(self) -> None:
        """Make appended records durable.

        Always flushes to the OS (survives a process kill); with the
        ``fsync`` durability level additionally calls ``os.fsync`` so the
        records survive power loss.
        """
        if self._fsync:
            self._fs.fsync(self._file)
        else:
            self._file.flush()

    def truncate(self) -> None:
        """Discard all records (called after a successful memtable flush)."""
        self._file.close()
        self._file = self._fs.open(self.path, "wb")
        self.record_count = 0

    def close(self) -> None:
        if not self._file.closed:
            self._file.flush()
            self._file.close()


def replay(path: str | Path) -> Tuple[List[Record], Optional[int]]:
    """Every intact record in the log as ``(op, key, value)``, and the
    offset its torn tail starts at (``None`` when the log ends on a
    record boundary).

    A truncated or checksum-failing final record is dropped; a corrupt
    record followed by more data raises :class:`WalCorruptionError`.
    """
    path = Path(path)
    records: List[Record] = []
    if not path.exists():
        return records, None
    with open(path, "rb") as handle:
        data = handle.read()
    offset = 0
    total = len(data)
    while offset < total:
        if offset + _HEADER.size > total:
            return records, offset  # torn header at tail
        length, crc = _HEADER.unpack_from(data, offset)
        body_start = offset + _HEADER.size
        body_end = body_start + length
        if body_end > total:
            return records, offset  # torn payload at tail
        payload = data[body_start:body_end]
        if zlib.crc32(payload) != crc:
            if body_end == total:
                return records, offset  # corrupt tail record: drop it
            raise WalCorruptionError(
                f"WAL checksum mismatch at offset {offset} in {path}"
            )
        records.append(_decode_payload(payload))
        offset = body_end
    return records, None
