"""Ledger block storage: serialized blocks in append-only files.

Every read fetches the whole CRC-checked record, opens it as a lazy
:class:`~repro.fabric.block.Block` (framed payload: the transaction a
caller indexes is decoded through the block codec, the rest only if
asked for) and bumps the ``ledger.blocks_deserialized`` /
``ledger.block_bytes_read`` counters -- the quantities the paper's entire
analysis is expressed in: a block touched counts once, however much of it
is decoded.
There is **no cross-call block cache**: each GHFK call pays its own
deserialization, matching the paper's cost model (Section V).  A read is
one positional read on a per-file descriptor the block-file manager
opens once (``pread`` shares no file position with the appends).
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, Optional

from repro.common import metrics as metric_names
from repro.common.codec import Codec, JsonCodec
from repro.common.errors import BlockFileError, BlockNotFoundError
from repro.common.metrics import NULL_REGISTRY, MetricsRegistry
from repro.fabric.block import Block, WriteValues
from repro.faults.crashpoints import BLOCKSTORE_MID_ADD, crash_point
from repro.faults.fs import REAL_FS, FileSystem
from repro.storage.blockfile import BlockFileManager
from repro.storage.blockindex import BlockIndex, BlockLocation

class BlockStore:
    """Append-only block storage with an on-disk location index.

    On open the index is reconciled against the block files, which are
    the source of truth: a torn blockfile tail truncates the index back
    to the intact records and is cut off the file before the next append
    can land behind it, an index that lags the files (crash between file
    append and index append) is extended by scanning the files, and a
    corrupt index is rebuilt from scratch the same way.

    Blocks are stored in :class:`JsonCodec`; ``codec`` is there for a
    test to substitute a counting subclass.
    """

    def __init__(
        self,
        path: str | Path,
        codec: Optional[Codec] = None,
        max_file_bytes: int = 4 * 1024 * 1024,
        metrics: MetricsRegistry = NULL_REGISTRY,
        durability: str = "flush",
        fs: FileSystem = REAL_FS,
    ) -> None:
        if durability not in ("flush", "fsync"):
            raise ValueError(
                f"durability must be 'flush' or 'fsync', got {durability!r}"
            )
        path = Path(path)
        fsync = durability == "fsync"
        self._files = BlockFileManager(
            path / "chains", max_file_bytes=max_file_bytes, fsync=fsync, fs=fs
        )
        index_path = path / "index" / "blocks.idx"
        fs.remove(index_path.with_name(index_path.name + ".tmp"))
        try:
            self._index = BlockIndex(index_path, fsync=fsync, fs=fs)
        except BlockFileError:
            # Corrupt index: it is derived data, rebuild it from the files.
            fs.remove(index_path)
            self._index = BlockIndex(index_path, fsync=fsync, fs=fs)
        self._codec = codec or JsonCodec()
        self._metrics = metrics
        self._reconcile_index()

    def _reconcile_index(self) -> None:
        """Make the index agree with the block files after a crash."""
        if self._index.height:
            last = self._index.lookup(self._index.height - 1)
            assert last is not None
            scan = self._files.scan_records(last.file_num, last.offset)
            base = self._index.height - 1
        else:
            scan = self._files.scan_records(0, 0)
            base = 0
        count = 0
        intact: Optional[BlockLocation] = None
        try:
            for intact, _payload in scan:
                position = base + count
                if position < self._index.height:
                    if self._index.lookup(position) != intact:
                        self._rebuild_index()
                        return
                else:
                    self._index.append(intact)
                count += 1
        except BlockFileError:
            # Mid-chain damage the scan cannot step over; reads of the
            # affected blocks will raise, but everything indexed before
            # the damage stays servable.
            return
        intact_height = base + count
        if intact_height < self._index.height:
            # Index got ahead of the files (torn blockfile tail).  Rebuild
            # from a full scan so every surviving entry is re-verified.
            self._rebuild_index()
            return
        self._files.cut_after(intact)
        self._index.sync()

    def _rebuild_index(self) -> None:
        """Rebuild the whole index from a full block-file scan."""
        self._index.truncate_to(0)
        intact: Optional[BlockLocation] = None
        for intact, _payload in self._files.scan_records(0, 0):
            self._index.append(intact)
        self._files.cut_after(intact)
        self._index.sync()

    @property
    def height(self) -> int:
        """Chain height (number of committed blocks)."""
        return self._index.height

    @property
    def codec(self) -> Codec:
        """The codec blocks are stored in."""
        return self._codec

    def add_block(self, block: Block, values: Optional[WriteValues] = None) -> None:
        """Serialize and append ``block``; it must be the next in sequence.

        ``values`` are its write values already encoded with :attr:`codec`
        (:meth:`Block.write_values`), when the caller has them."""
        if block.number != self.height:
            raise BlockNotFoundError(
                f"expected block {self.height}, got {block.number}"
            )
        payload = block.to_payload(self._codec, values)
        location = self._files.append(payload)
        crash_point(BLOCKSTORE_MID_ADD)
        self._index.append(location)

    def get_block(self, block_number: int) -> Block:
        """Read and deserialize one block (counted, real file IO): look
        it up in the index (:class:`BlockNotFoundError` past the head),
        read its record, count one block deserialization and open the
        payload as a lazy :class:`Block` -- the frame is parsed here, a
        transaction (or the header) is decoded when first asked for."""
        location = self._index.lookup(block_number)
        if location is None:
            raise BlockNotFoundError(
                f"block {block_number} beyond height {self.height}"
            )
        payload = self._files.read(location)
        self._metrics.increment_many(
            (metric_names.BLOCKS_DESERIALIZED, 1),
            (metric_names.BLOCK_BYTES_READ, len(payload)),
        )
        return Block.from_payload(payload, self._codec, self._metrics)

    def iter_blocks(self, start: int = 0, end: Optional[int] = None) -> Iterator[Block]:
        """Yield blocks ``start .. end`` (``end`` exclusive, default height)."""
        stop = self.height if end is None else min(end, self.height)
        for number in range(start, stop):
            yield self.get_block(number)

    def total_bytes(self) -> int:
        """On-disk size of all block files (storage-cost reporting)."""
        return self._files.total_bytes()

    def sync(self) -> None:
        self._files.sync()
        self._index.sync()

    def close(self) -> None:
        self._files.close()
        self._index.close()
