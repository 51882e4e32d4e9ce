"""The state database: current value + version of every key.

Fabric keeps this in LevelDB (or CouchDB).  Ours sits on a
:class:`repro.storage.kv.KVStore` -- the LSM backend for file-backed
fidelity or the in-memory backend for speed -- and stores each key's
current value together with its version (the Fabric "height"
``(block, tx)`` at which it was written).

State keys are strings.  Composite keys used by the temporal models embed
``\\x00`` separators, which encode cleanly to UTF-8 and sort correctly
under the byte-lexicographic order the KV layer provides.

A read hands back the stored bytes wrapped in a :class:`StateValue`,
decoded on first access (Fabric's ``KV.Value`` contract).  The temporal
engines scan thousands of states per query for their *keys* alone, and
read them through :meth:`StateDB.keys_in_range`: the keys
:meth:`StateDB.get_state_by_range` would yield, listed by the store's
keys-only scan (:meth:`~repro.storage.kv.api.KVStore.scan_keys`).
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, List, Optional, Tuple

from repro.common import metrics as metric_names
from repro.common.codec import Codec, JsonCodec
from repro.common.metrics import NULL_REGISTRY, MetricsRegistry
from repro.fabric.block import KVWrite, Version
from repro.storage.kv.api import BatchItem, KVStore

#: Reserved state key holding the last committed block number, used to
#: detect whether state must be rebuilt from the block store on open
#: (Fabric calls this the savepoint).
SAVEPOINT_KEY = "\x01savepoint"
_SAVEPOINT_RAW = SAVEPOINT_KEY.encode("utf-8")

#: One write of a batch: the write, the version it commits at, and its
#: value already encoded with the state-db's codec, or ``None`` when the
#: state-db is to encode it.
BatchWrite = Tuple[KVWrite, Version, Optional[bytes]]


class StateValue:
    """A committed state: the value and the height that wrote it.

    Decoded from the stored bytes on the first read of :attr:`value` or
    :attr:`version`, once; undecodable bytes raise ``CodecError`` there.
    The cache is an idempotent write: every first read would decode the
    same immutable bytes into equal tuples.
    """

    __slots__ = ("_raw", "_codec", "_fields")

    def __init__(self, raw: bytes, codec: Codec) -> None:
        self._raw = raw
        self._codec = codec
        self._fields: Optional[Tuple[Any, Version]] = None

    def _decoded(self) -> Tuple[Any, Version]:
        fields = self._fields
        if fields is None:
            record = self._codec.decode(self._raw)
            block_num, tx_num = record["ver"]
            fields = self._fields = (record["v"], (block_num, tx_num))
        return fields

    @property
    def value(self) -> Any:
        return self._decoded()[0]

    @property
    def version(self) -> Version:
        return self._decoded()[1]


class StateDB:
    """Versioned current-state store over a sorted KV backend.

    Records are stored in :class:`JsonCodec`; ``codec`` is there for a
    test to substitute a counting subclass."""

    def __init__(
        self,
        store: KVStore,
        codec: Optional[Codec] = None,
        metrics: MetricsRegistry = NULL_REGISTRY,
    ) -> None:
        self._store = store
        self._codec = codec or JsonCodec()
        self._metrics = metrics
        #: The record ``{"v": value, "ver": version}`` spelled around its
        #: two values, so a value encoded once is spliced in.
        self._record = self._codec.map_affixes(("v", "ver"))

    # -- reads -------------------------------------------------------------

    def get_state(self, key: str) -> Optional[StateValue]:
        """Current state of ``key`` or ``None`` (counts a GetState call)."""
        self._metrics.increment(metric_names.GET_STATE_CALLS)
        if not key:  # the check of :meth:`_encode_key`, inline on the point read
            raise ValueError("state keys must be non-empty")
        raw = self._store.get(key.encode("utf-8"))
        if raw is None:
            return None
        return StateValue(raw, self._codec)

    def get_version(self, key: str) -> Optional[Version]:
        """Version of ``key`` without counting a user-visible GetState."""
        raw = self._store.get(self._encode_key(key))
        if raw is None:
            return None
        return StateValue(raw, self._codec).version

    def get_state_by_range(
        self, start_key: str, end_key: str
    ) -> Iterator[Tuple[str, StateValue]]:
        """Sorted scan of current states with ``start_key <= key < end_key``.

        Empty ``start_key`` / ``end_key`` mean unbounded, as in Fabric's
        ``GetStateByRange``.  Values stay undecoded until read.
        """
        codec = self._codec
        for raw_key, raw_value in self._store.scan(*self._bounds(start_key, end_key)):
            if raw_key != _SAVEPOINT_RAW:
                yield raw_key.decode("utf-8"), StateValue(raw_value, codec)

    def keys_in_range(self, start_key: str, end_key: str) -> List[str]:
        """The keys :meth:`get_state_by_range` would yield, as one list
        taken at the call by the store's keys-only scan: no value and no
        ``StateValue`` per state, for a caller that reads keys alone (the
        engines' listings)."""
        start, end = self._bounds(start_key, end_key)
        keys = self._store.scan_keys(start, end)
        if (start is None or start <= _SAVEPOINT_RAW) and _SAVEPOINT_RAW in keys:
            keys.remove(_SAVEPOINT_RAW)
        return list(map(bytes.decode, keys))

    def _bounds(self, start_key: str, end_key: str) -> Tuple[Optional[bytes], Optional[bytes]]:
        """Count one range-scan call and encode its bounds (empty: unbounded)."""
        self._metrics.increment(metric_names.RANGE_SCAN_CALLS)
        start = self._encode_key(start_key) if start_key else None
        return start, self._encode_key(end_key) if end_key else None

    # -- writes -------------------------------------------------------------

    def apply_write(self, writes: Iterable[BatchWrite]) -> None:
        """Apply validated writes, in order, as one KV write batch.

        Each ``(write, version, value)`` stores the record ``{"v":
        write.value, "ver": [block, tx]}`` (a deletion removes the key).
        ``value`` is ``write.value`` already encoded with the codec --
        the commit path hands in the bytes it encoded for the block's
        write segment -- or ``None`` to encode it here; either way it is
        spliced between the record's map pieces, which spells the bytes
        of encoding the record whole.
        """
        encode = self._codec.encode
        head, middle, tail = self._record
        batch: List[BatchItem] = []
        version: Optional[Version] = None
        encoded_version = b""
        for write, at, value in writes:
            key = write.key
            if not key:  # the check of :meth:`_encode_key`, inline per write
                raise ValueError("state keys must be non-empty")
            key = key.encode("utf-8")
            if write.is_delete:
                batch.append((key, None))
                continue
            if at is not version:
                version, encoded_version = at, encode(list(at))
            if value is None:
                value = encode(write.value)
            batch.append((key, b"".join((head, value, middle, encoded_version, tail))))
        self._store.write_batch(batch)

    def record_savepoint(self, block_number: int) -> None:
        """Persist the last fully-applied block number."""
        self._store.put(
            self._encode_key(SAVEPOINT_KEY),
            self._codec.encode({"v": block_number, "ver": [block_number, 0]}),
        )

    def savepoint(self) -> Optional[int]:
        """The last fully-applied block number, or ``None`` when fresh."""
        raw = self._store.get(self._encode_key(SAVEPOINT_KEY))
        if raw is None:
            return None
        return StateValue(raw, self._codec).value

    @property
    def tables_set_aside(self) -> Tuple[str, ...]:
        """The backend tables the open set aside (see
        :attr:`KVStore.tables_set_aside`); the ledger rebuilds every state
        from the chain when there are any (``Ledger._recover``)."""
        return self._store.tables_set_aside

    # -- bookkeeping ---------------------------------------------------------

    def state_count(self) -> int:
        """Number of live states (drives the paper's state-db-size costs)."""
        keys = self._store.scan_keys(None, None)
        return len(keys) - (_SAVEPOINT_RAW in keys)

    def close(self) -> None:
        self._store.close()

    # -- encoding --------------------------------------------------------------

    @staticmethod
    def _encode_key(key: str) -> bytes:
        if not key:
            raise ValueError("state keys must be non-empty")
        return key.encode("utf-8")
