"""Ledger block storage: serialized blocks in append-only files.

Every read fetches the whole CRC-checked record, opens it as a lazy
:class:`~repro.fabric.block.Block` (framed payload: the transaction a
caller indexes is decoded through the configured codec, the rest only if
asked for) and bumps the ``ledger.blocks_deserialized`` /
``ledger.block_bytes_read`` counters -- the quantities the paper's entire
analysis is expressed in: a block touched counts once, however much of it
is decoded.
By default there is **no cross-call block cache**: each GHFK call pays
its own deserialization, matching the paper's cost model (Section V).
An LRU cache can be switched on (``cache_blocks > 0``, or by injecting a
shared :class:`~repro.fabric.blockcache.BlockCache`) for the cache
ablation: GHFK scans of co-located keys then deserialize each block
once.  The cache is thread-safe and single-flight (a query may race a
commit or another query); reads are safe from any number of threads
(each is one positional read on a per-file descriptor the block-file
manager opens once; ``pread`` shares no file position).
"""

from __future__ import annotations

import itertools
from pathlib import Path
from typing import Iterator, Optional

from repro.common import metrics as metric_names
from repro.common.codec import Codec, get_codec
from repro.common.errors import BlockFileError, BlockNotFoundError
from repro.common.metrics import NULL_REGISTRY, MetricsRegistry
from repro.fabric.block import Block
from repro.fabric.blockcache import BlockCache
from repro.faults.crashpoints import BLOCKSTORE_MID_ADD, crash_point
from repro.faults.fs import REAL_FS, FileSystem
from repro.storage.blockfile import BlockFileManager
from repro.storage.blockindex import BlockIndex, BlockLocation

#: Per-store namespace tokens, so several stores can share one
#: process-wide :class:`BlockCache` without block-number collisions.
_STORE_TOKENS = itertools.count()


class BlockStore:
    """Append-only block storage with an on-disk location index.

    On open the index is reconciled against the block files, which are
    the source of truth: a torn blockfile tail truncates the index back
    to the intact records, an index that lags the files (crash between
    file append and index append) is extended by scanning the files, and
    a corrupt index is rebuilt from scratch the same way.
    """

    def __init__(
        self,
        path: str | Path,
        codec: str | Codec = "json",
        max_file_bytes: int = 4 * 1024 * 1024,
        metrics: MetricsRegistry = NULL_REGISTRY,
        cache_blocks: int = 0,
        durability: str = "flush",
        fs: FileSystem = REAL_FS,
        cache: Optional[BlockCache] = None,
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
        index_path.with_name(index_path.name + ".tmp").unlink(missing_ok=True)
        try:
            self._index = BlockIndex(index_path, fsync=fsync, fs=fs)
        except BlockFileError:
            # Corrupt index: it is derived data, rebuild it from the files.
            index_path.unlink(missing_ok=True)
            self._index = BlockIndex(index_path, fsync=fsync, fs=fs)
        self._codec = codec if isinstance(codec, Codec) else get_codec(codec)
        self._metrics = metrics
        if cache is None and cache_blocks:
            cache = BlockCache(cache_blocks, metrics=metrics)
        self._cache = cache
        self._cache_token = next(_STORE_TOKENS)
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
        try:
            for location, _payload in scan:
                position = base + count
                if position < self._index.height:
                    if self._index.lookup(position) != location:
                        self._rebuild_index()
                        return
                else:
                    self._index.append(location)
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
        self._index.sync()

    def _rebuild_index(self) -> None:
        """Rebuild the whole index from a full block-file scan."""
        self._index.truncate_to(0)
        for location, _payload in self._files.scan_records(0, 0):
            self._index.append(location)
        self._index.sync()

    @property
    def height(self) -> int:
        """Chain height (number of committed blocks)."""
        return self._index.height

    def add_block(self, block: Block) -> None:
        """Serialize and append ``block``; it must be the next in sequence."""
        if block.number != self.height:
            raise BlockNotFoundError(
                f"expected block {self.height}, got {block.number}"
            )
        payload = block.to_payload(self._codec)
        location = self._files.append(payload)
        crash_point(BLOCKSTORE_MID_ADD)
        self._index.append(location)

    def get_block(self, block_number: int) -> Block:
        """Read and deserialize one block (counted, real file IO).

        With a cache configured, a hit serves the decoded block from the
        thread-safe LRU instead (hits/misses/evictions are counted
        separately; the deserialization counters are untouched so the
        paper's cost metric stays honest).  Concurrent readers of the
        same uncached block share one deserialization (single-flight),
        and a bad block number raises :class:`BlockNotFoundError`
        identically with and without the cache.
        """
        if self._cache is not None:
            block = self._cache.get_or_load(
                (self._cache_token, block_number),
                lambda: self._read_block(block_number),
            )
            assert isinstance(block, Block)
            return block
        return self._read_block(block_number)

    def _locate(self, block_number: int) -> BlockLocation:
        """Where ``block_number`` lives on disk, or :class:`BlockNotFoundError`."""
        location = self._index.lookup(block_number)
        if location is None:
            raise BlockNotFoundError(
                f"block {block_number} beyond height {self.height}"
            )
        return location

    def _deserialize(self, payload: bytes) -> Block:
        """Count one block deserialization and open ``payload`` as a lazy
        :class:`Block`: the frame is parsed here, a transaction (or the
        header) is decoded when first asked for."""
        self._metrics.increment_many(
            (metric_names.BLOCKS_DESERIALIZED, 1),
            (metric_names.BLOCK_BYTES_READ, len(payload)),
        )
        return Block.from_payload(payload, self._codec, self._metrics)

    def _read_block(self, block_number: int) -> Block:
        """The uncached path: locate, read and deserialize one block."""
        return self._deserialize(self._files.read(self._locate(block_number)))

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
