"""The history database: which blocks wrote each key, plus the lazy
``GetHistoryForKey`` iterator.

Fabric's peer maintains, per key, the set of block locations containing a
transaction that wrote that key (Section II).  The index itself is cheap
metadata; the *values* stay inside the serialized blocks, so reading a
key's history means deserializing those blocks one by one.  A location
names the block, the transaction and the write, so within a block a
result decodes only that write and its transaction's ``[tx_id,
timestamp]`` head.  The iterator is lazy, oldest-first: callers that stop
early (e.g. past a temporal query's end timestamp) never pay for the
remaining blocks.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.common import metrics as metric_names
from repro.common.metrics import NULL_REGISTRY, MetricsRegistry
from repro.fabric.block import Block
from repro.fabric.blockstore import BlockStore


#: Where one write lives: ``(block_num, tx_num, write_num)``, ``write_num``
#: being the write's position among its transaction's writes in sorted
#: key order -- what :meth:`Block.history_write` decodes by.
Location = Tuple[int, int, int]


class HistoryEntry(NamedTuple):
    """One historical state of a key, extracted from a committed block.

    A named tuple, not a frozen dataclass: one is built per GHFK result,
    and a frozen dataclass pays an ``object.__setattr__`` per field.
    """

    key: str
    value: Any
    is_delete: bool
    #: The writing transaction's logical timestamp.
    timestamp: int
    block_num: int
    tx_num: int
    tx_id: str


_new_entry = tuple.__new__


class HistoryDB:
    """Per-key index of write locations ``(block_num, tx_num, write_num)``.

    Rebuilt from the block store on open (the index is derivable metadata,
    exactly as Fabric can rebuild its history index from the chain).

    A GHFK iterator may be held across a commit (a gateway flushing
    between two results): :meth:`get_history_for_key` iterates over a
    *snapshot* of the key's location list, and :meth:`keys` returns one,
    so a commit appending to the live index mid-iteration changes
    neither.
    """

    def __init__(self, metrics: MetricsRegistry = NULL_REGISTRY) -> None:
        self._locations: Dict[str, List[Location]] = {}
        self._metrics = metrics

    @staticmethod
    def _record(locations: Dict[str, List[Location]], block: Block) -> None:
        """Append ``block``'s valid write locations to ``locations``."""
        number, written = block.history_keys()
        for tx_num, keys in written:
            for write_num, key in enumerate(keys):
                locations.setdefault(key, []).append((number, tx_num, write_num))

    def index_block(self, block: Block) -> None:
        """Record write locations for every *valid* transaction in ``block``."""
        self._record(self._locations, block)

    def rebuild(self, block_store: BlockStore) -> None:
        """Reconstruct the index by scanning the whole chain.

        The scan builds a fresh index and swaps it in at the end, so a
        scan that fails part-way leaves the old index in place.
        """
        fresh: Dict[str, List[Location]] = {}
        for block in block_store.iter_blocks():
            self._record(fresh, block)
        self._locations = fresh

    def locations_for_key(self, key: str) -> List[Location]:
        """All write locations for ``key``, oldest first."""
        return list(self._locations.get(key, ()))

    def block_count_for_key(self, key: str) -> int:
        """Number of distinct blocks containing writes to ``key``."""
        return len({location[0] for location in self._locations.get(key, ())})

    def key_count(self) -> int:
        return len(self._locations)

    def keys(self) -> List[str]:
        """A snapshot of every key with at least one write location."""
        return list(self._locations)

    def get_history_for_key(
        self, key: str, block_store: BlockStore
    ) -> Iterator[HistoryEntry]:
        """Fabric's GHFK: lazily yield all past states of ``key``, oldest first.

        Every call ticks ``query.ghfk_calls``.  A key with no write
        location -- an M1 or M2 ``(k, θ)`` key whose interval held no
        event -- gets an exhausted iterator: no generator, no list copy,
        no block read.  Otherwise each new block touched is deserialized
        through ``block_store`` (and counted); consecutive writes living in
        the same block reuse the iterator's single-block cache.  Abandoning
        the iterator early skips the remaining blocks entirely -- the
        behaviour the paper's Model M1 relies on to read an index bundle
        with exactly one block access.  The iterator walks a copy of the
        key's location list: writes committed while it is held are not
        part of this history.
        """
        self._metrics.increment(metric_names.GHFK_CALLS)
        locations = self._locations.get(key)
        if not locations:
            return iter(())
        return self._iterate_history(key, list(locations), block_store)

    def oldest_entries(
        self, keys: List[str], block_store: BlockStore
    ) -> List[Optional[HistoryEntry]]:
        """The first result of each key's GHFK, ``None`` for a key with
        none: what ``len(keys)`` :meth:`get_history_for_key` iterators, each
        abandoned after its first result, yield and count (up to and
        including one that raises).  Model M1's bundle read: a key's oldest
        write is its bundle; the deletion marker's block is never read."""
        increment_many = self._metrics.increment_many
        index = self._locations
        entries: List[Optional[HistoryEntry]] = [None] * len(keys)
        position = -1
        try:
            for position, key in enumerate(keys):
                locations = index.get(key)
                if locations:
                    block_num, tx_num, write_num = locations[0]
                    value, is_delete, timestamp, tx_id, decoded_head = block_store.get_block(
                        block_num
                    ).history_write(tx_num, write_num, key)
                    increment_many(
                        (metric_names.GHFK_RESULTS, 1), (metric_names.TXS_DECODED, decoded_head)
                    )
                    entries[position] = _new_entry(
                        HistoryEntry,
                        (key, value, is_delete, timestamp, block_num, tx_num, tx_id),
                    )
        finally:
            # One GHFK call per key reached, the one that raised included.
            self._metrics.increment(metric_names.GHFK_CALLS, position + 1)
        return entries

    def _iterate_history(
        self,
        key: str,
        locations: List[Location],
        block_store: BlockStore,
    ) -> Iterator[HistoryEntry]:
        # A result's counters are ticked before it is handed out, in one
        # registry call: a caller that abandons the iterator (M1 after its
        # one bundle, TQF past the window) has every result it took
        # counted at that moment, and nothing else.  Entries are built
        # with ``tuple.__new__``: the named tuple's own ``__new__`` is a
        # Python function that only repeats it.
        increment_many = self._metrics.increment_many
        cached_block: Optional[Block] = None
        cached_num = -1
        for block_num, tx_num, write_num in locations:
            if block_num != cached_num:
                cached_block = block_store.get_block(block_num)
                cached_num = block_num
            assert cached_block is not None
            value, is_delete, timestamp, tx_id, decoded_head = cached_block.history_write(
                tx_num, write_num, key
            )
            increment_many(
                (metric_names.GHFK_RESULTS, 1), (metric_names.TXS_DECODED, decoded_head)
            )
            yield _new_entry(
                HistoryEntry,
                (key, value, is_delete, timestamp, block_num, tx_num, tx_id),
            )
