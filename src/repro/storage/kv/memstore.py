"""In-memory KV backend with the same semantics as the LSM store.

Used for experiments where state-db durability is not the variable under
test; keeps benchmark setup fast while preserving ordering semantics.
"""

from __future__ import annotations

import bisect
from typing import Iterator, Optional, Tuple

from repro.common.locks import make_lock
from repro.storage.kv.api import KVStore


class MemStore(KVStore):
    """A sorted in-memory map implementing :class:`KVStore`.

    Writes are serialized by an internal lock so the store can back
    concurrent ingestion; scans still materialize their key slice, so a
    racing writer fails a scan loudly instead of corrupting it.
    """

    def __init__(self) -> None:
        self._lock = make_lock("MemStore._lock")
        self._values: dict[bytes, bytes] = {}
        self._sorted_keys: list[bytes] = []

    def get(self, key: bytes) -> Optional[bytes]:
        self._check_open()
        self._check_key(key)
        return self._values.get(bytes(key))

    def put(self, key: bytes, value: bytes) -> None:
        self._check_open()
        self._check_key(key)
        self._check_value(value)
        key = bytes(key)
        with self._lock:
            if key not in self._values:
                bisect.insort(self._sorted_keys, key)
            self._values[key] = bytes(value)

    def delete(self, key: bytes) -> None:
        self._check_open()
        self._check_key(key)
        key = bytes(key)
        with self._lock:
            if key in self._values:
                del self._values[key]
                index = bisect.bisect_left(self._sorted_keys, key)
                del self._sorted_keys[index]

    def scan(
        self, start: Optional[bytes] = None, end: Optional[bytes] = None
    ) -> Iterator[Tuple[bytes, bytes]]:
        """Not a generator: a closed store raises here, and the keys
        scanned are those present at this call."""
        self._check_open()
        with self._lock:
            keys = self._sorted_keys
            lo = 0 if start is None else bisect.bisect_left(keys, bytes(start))
            hi = len(keys) if end is None else bisect.bisect_left(keys, bytes(end))
            # Materialize the key slice so concurrent mutation during
            # iteration fails loudly (KeyError) instead of corrupting the
            # scan silently.
            window = keys[lo:hi]
        return zip(window, map(self._values.__getitem__, window))

    def close(self) -> None:
        with self._lock:
            self._closed = True

    def __len__(self) -> int:
        return len(self._values)
