"""The key-value store interface shared by all backends.

Keys and values are ``bytes``.  Iteration order is bytewise-lexicographic
on keys, which is what makes composite-key range scans (``GetStateByRange``
in the Fabric layer) work.  Range bounds follow the conventional
half-open ``[start, end)`` contract with ``None`` meaning unbounded.

Every write is a :meth:`KVStore.write_batch` -- ``put`` is a one-item
batch and a delete is a ``(key, None)`` item -- as in LevelDB, where
``Put`` and ``Delete`` are a ``WriteBatch`` of one.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.common.errors import ClosedStoreError

#: One batch item: ``(key, value)`` puts, ``(key, None)`` deletes.
BatchItem = Tuple[bytes, Optional[bytes]]


class KVStore(ABC):
    """A sorted, mutable mapping from byte keys to byte values."""

    _closed: bool = False
    #: Storage units the open set aside because it could not vouch for
    #: them (moved out of the way, not served): what the store lost and
    #: its owner must rebuild.  A backend with nothing on disk has none.
    tables_set_aside: Tuple[str, ...] = ()

    @abstractmethod
    def get(self, key: bytes) -> Optional[bytes]:
        """Return the value for ``key`` or ``None`` if absent."""

    @abstractmethod
    def write_batch(self, items: Iterable[BatchItem]) -> None:
        """Apply ``items`` in order: ``(key, value)`` inserts or overwrites
        ``key``, ``(key, None)`` removes it (removing an absent key is a
        no-op).

        The result is that of the items applied one at a time, a key
        repeated in the batch included.  Every item is checked before any
        is applied, so a bad one (a key that is not non-empty bytes, a
        value that is neither bytes nor ``None``) raises and leaves the
        store untouched.
        """

    def put(self, key: bytes, value: bytes) -> None:
        """Insert or overwrite ``key``: a one-item :meth:`write_batch`."""
        self._check_value(value)
        self.write_batch(((key, value),))

    @abstractmethod
    def scan(
        self, start: Optional[bytes] = None, end: Optional[bytes] = None
    ) -> Iterator[Tuple[bytes, bytes]]:
        """``(key, value)`` pairs with ``start <= key < end``, sorted.

        A closed store raises at the call, not at the first ``next()``.
        Every key present at the call and not deleted since is yielded; a
        key put while the scan runs may or may not be (LevelDB without an
        explicit snapshot promises less).
        """

    @abstractmethod
    def scan_keys(
        self, start: Optional[bytes] = None, end: Optional[bytes] = None
    ) -> List[bytes]:
        """The keys :meth:`scan` would yield, sorted, as one list taken at
        the call: the listing a caller that reads keys alone pays for, with
        no ``(key, value)`` pair per key.  A closed store raises."""

    @abstractmethod
    def close(self) -> None:
        """Release resources.  Further operations raise :class:`ClosedStoreError`."""

    # -- shared helpers ------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise ClosedStoreError(f"{type(self).__name__} is closed")

    @staticmethod
    def _check_key(key: bytes) -> None:
        if not isinstance(key, (bytes, bytearray)):
            raise TypeError(f"key must be bytes, got {type(key).__name__}")
        if not key:
            raise ValueError("key must be non-empty")

    @staticmethod
    def _check_value(value: bytes) -> None:
        if not isinstance(value, (bytes, bytearray)):
            raise TypeError(f"value must be bytes, got {type(value).__name__}")

    @classmethod
    def _checked_batch(cls, items: Iterable[BatchItem]) -> List[BatchItem]:
        """``items`` as immutable ``bytes``, each checked: the first bad
        item raises before anything is written.  An item that is already
        a non-empty ``bytes`` key with a ``bytes`` value or ``None`` (every
        item the state-db writes) passes as it is."""
        batch: List[BatchItem] = []
        for key, value in items:
            if type(key) is bytes and key and (value is None or type(value) is bytes):
                batch.append((key, value))
                continue
            cls._check_key(key)
            if value is not None:
                cls._check_value(value)
                value = bytes(value)
            batch.append((bytes(key), value))
        return batch


#: Sentinel byte prepended to SSTable/WAL records to mark deletions.  Kept
#: here so the memtable, WAL and SSTable modules agree on the encoding.
OP_PUT = 0
OP_DELETE = 1
