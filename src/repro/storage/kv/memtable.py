"""The sorted in-memory table at the front of the LSM store.

A memtable holds the most recent writes, including *tombstones* (deletion
markers) which must shadow older values living in SSTables.  Internally it
keeps a dict for O(1) point lookups and a sorted key list (maintained with
``bisect``) for ordered scans.
"""

from __future__ import annotations

import bisect
import enum
from typing import Final, Iterator, Optional, Sequence, Tuple, Union

from repro.storage.kv.api import BatchItem


class Absent(enum.Enum):
    """The type of :data:`ABSENT` (an enum, so ``is`` narrows it away)."""

    ABSENT = 0


#: What :meth:`Memtable.lookup` returns for a key it holds no entry for.
ABSENT: Final = Absent.ABSENT


class Memtable:
    """A mutable sorted map supporting tombstones.

    Entries map key -> value-bytes or ``None`` (a tombstone).
    ``approximate_bytes`` tracks the memory footprint used for flush decisions.
    """

    def __init__(self) -> None:
        self._entries: dict[bytes, Optional[bytes]] = {}
        self._sorted_keys: list[bytes] = []
        self.approximate_bytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    def write(self, items: Sequence[BatchItem]) -> None:
        """Apply ``(key, value)`` items in order, ``None`` values as
        tombstones; keys and values must already be ``bytes``."""
        entries, sorted_keys = self._entries, self._sorted_keys
        added = 0
        for key, value in items:
            if key not in entries:
                bisect.insort(sorted_keys, key)
            entries[key] = value
            added += len(key) if value is None else len(key) + len(value)
        self.approximate_bytes += added

    def fill_point(self, items: Sequence[BatchItem], start: int, limit: int) -> int:
        """One past the item of ``items[start:]`` whose write would bring
        this table to ``limit`` entries, or ``len(items)`` if none would:
        where a writer applying the items one by one would flush."""
        entries = self._entries
        size = len(entries)
        fresh: set[bytes] = set()
        for index in range(start, len(items)):
            key = items[index][0]
            if key not in entries and key not in fresh:
                fresh.add(key)
                size += 1
            if size >= limit:
                return index + 1
        return len(items)

    def lookup(self, key: bytes) -> Union[bytes, None, Absent]:
        """The value of ``key``, ``None`` for a tombstone, :data:`ABSENT`
        when the memtable holds no entry for it: one dict lookup.

        ``None`` means the key is *known deleted* and older SSTables must
        not be consulted; :data:`ABSENT` means the memtable has no opinion.
        ``key`` must be ``bytes`` (a ``bytearray`` is unhashable).
        """
        return self._entries.get(key, ABSENT)

    def scan(
        self, start: Optional[bytes], end: Optional[bytes]
    ) -> Iterator[Tuple[bytes, Optional[bytes]]]:
        """``(key, value-or-None)`` in key order within ``[start, end)``.

        Tombstones come with value ``None`` so the LSM merge can suppress
        shadowed SSTable entries.  The keys are a slice taken by this
        call, not positions walked in the live list: a ``put`` of a smaller
        key mid-scan shifts that list, and a walk by position would then
        repeat one key and never reach the last.  Every key present at the
        call is yielded, with the value it has when the scan reaches it.
        """
        window = self._key_window(start, end)
        return zip(window, map(self._entries.__getitem__, window))

    def window(
        self, start: Optional[bytes], end: Optional[bytes]
    ) -> Tuple[list[bytes], list[Optional[bytes]]]:
        """The keys within ``[start, end)`` and their values (``None`` for a
        tombstone), as two lists taken by this call."""
        window = self._key_window(start, end)
        entries = self._entries
        return window, [entries[key] for key in window]

    def _key_window(self, start: Optional[bytes], end: Optional[bytes]) -> list[bytes]:
        keys = self._sorted_keys
        lo = 0 if start is None else bisect.bisect_left(keys, bytes(start))
        hi = len(keys) if end is None else bisect.bisect_left(keys, bytes(end))
        return keys[lo:hi]

    def entries_sorted(self) -> Iterator[Tuple[bytes, Optional[bytes]]]:
        """All entries (tombstones as ``None``) in key order, for flushing."""
        return self.scan(None, None)
