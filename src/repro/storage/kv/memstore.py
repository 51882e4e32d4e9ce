"""In-memory KV backend with the same semantics as the LSM store.

Used for experiments where state-db durability is not the variable under
test; keeps benchmark setup fast while preserving ordering semantics.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.storage.kv.api import BatchItem, KVStore


class MemStore(KVStore):
    """A sorted in-memory map implementing :class:`KVStore`."""

    def __init__(self) -> None:
        self._values: dict[bytes, bytes] = {}
        self._sorted_keys: list[bytes] = []

    def get(self, key: bytes) -> Optional[bytes]:
        self._check_open()
        self._check_key(key)
        return self._values.get(bytes(key))

    def write_batch(self, items: Iterable[BatchItem]) -> None:
        self._check_open()
        batch = self._checked_batch(items)
        values, sorted_keys = self._values, self._sorted_keys
        for key, value in batch:
            if value is not None:
                if key not in values:
                    bisect.insort(sorted_keys, key)
                values[key] = value
            elif key in values:
                del values[key]
                del sorted_keys[bisect.bisect_left(sorted_keys, key)]

    def scan(
        self, start: Optional[bytes] = None, end: Optional[bytes] = None
    ) -> Iterator[Tuple[bytes, bytes]]:
        """Not a generator: a closed store raises here, and what is
        scanned is the store as of this call -- the entries in range are
        copied, so a ``put`` or ``delete`` made while the scan is held
        changes neither the keys nor the values it yields."""
        values = self._values
        return iter([(key, values[key]) for key in self.scan_keys(start, end)])

    def scan_keys(
        self, start: Optional[bytes] = None, end: Optional[bytes] = None
    ) -> List[bytes]:
        self._check_open()
        keys = self._sorted_keys
        lo = 0 if start is None else bisect.bisect_left(keys, bytes(start))
        hi = len(keys) if end is None else bisect.bisect_left(keys, bytes(end))
        return keys[lo:hi]

    def close(self) -> None:
        self._closed = True
