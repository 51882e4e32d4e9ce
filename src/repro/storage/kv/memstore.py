"""In-memory KV backend with the same semantics as the LSM store.

Used for experiments where state-db durability is not the variable under
test; keeps benchmark setup fast while preserving ordering semantics.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Iterator, Optional, Tuple

from repro.common.locks import make_lock
from repro.sanitizer.shared import sanitize_shared
from repro.storage.kv.api import BatchItem, KVStore


@sanitize_shared("_values", "_sorted_keys")
class MemStore(KVStore):
    """A sorted in-memory map implementing :class:`KVStore`.

    Every read and write of the map takes the store's lock, so the
    committer's writes and any number of readers can share one store.
    """

    def __init__(self) -> None:
        self._lock = make_lock("MemStore._lock")
        self._values: dict[bytes, bytes] = {}
        self._sorted_keys: list[bytes] = []

    def get(self, key: bytes) -> Optional[bytes]:
        self._check_open()
        self._check_key(key)
        key = bytes(key)
        with self._lock:
            return self._values.get(key)

    def write_batch(self, items: Iterable[BatchItem]) -> None:
        self._check_open()
        batch = self._checked_batch(items)
        with self._lock:
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
        copied under the lock, so a racing ``put`` or ``delete`` changes
        neither the keys nor the values this scan yields."""
        self._check_open()
        with self._lock:
            keys = self._sorted_keys
            lo = 0 if start is None else bisect.bisect_left(keys, bytes(start))
            hi = len(keys) if end is None else bisect.bisect_left(keys, bytes(end))
            values = self._values
            return iter([(key, values[key]) for key in keys[lo:hi]])

    def close(self) -> None:
        with self._lock:
            self._closed = True

    def __len__(self) -> int:
        with self._lock:
            return len(self._values)
