"""Ledger data model: reads, writes, transactions and blocks.

Mirrors Fabric's structures at the granularity the paper's cost model
needs:

* a :class:`Transaction` carries a read set (keys + the version observed
  during endorsement) and a write set (**at most one write per key** --
  Section II of the paper: "for a key, a Fabric transaction persists only
  one state on the ledger");
* a :class:`Block` carries an ordered list of transactions, per-transaction
  validation flags set at commit, and a header whose ``previous_hash``
  forms the chain.

Versions are Fabric "heights": ``(block_number, tx_index)``.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field
from itertools import accumulate
from typing import (  # noqa: F401 - Tuple in annotations
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.common import metrics as metric_names
from repro.common.codec import BYTES_TAG, Codec, read_uvarint, read_uvarints, write_uvarint
from repro.common.errors import ChaincodeError, CodecError, LedgerError
from repro.common.metrics import NULL_REGISTRY, MetricsRegistry
from repro.fabric import crypto

#: A committed value's version: (block number, transaction index).
Version = Tuple[int, int]

#: Each transaction's write values encoded, by key: what
#: :meth:`Block.to_payload` splices into the write segments and the
#: commit path into the state records.
WriteValues = List[Dict[str, bytes]]

def _sign_bytes(value: Any) -> str:
    """The signing encoder's fallback: ``bytes`` are signed as their
    ``repr``; any other value outside JSON cannot be stored, so it is
    refused here, at endorsement, before it can reach the orderer."""
    if isinstance(value, bytes):
        return repr(value)
    raise ChaincodeError(
        f"cannot store a value of type {type(value).__name__}: values are "
        "int, float, str, bytes, bool, None, list and dict"
    )


_encode_string = json.encoder.encode_basestring_ascii

#: ``json.dumps(payload, sort_keys=True, default=...)``'s C encoder,
#: built once (as :class:`~repro.common.codec.JsonCodec` builds its own):
#: the same bytes without constructing an encoder per call, and no
#: markers dict, so a cyclic payload ends as a ``RecursionError``, as one
#: nested too deep does.  Its fallback runs only for values JSON cannot
#: spell, so legal values pay nothing for :func:`_sign_bytes`.
_SIGNING_ENCODER = json.encoder.c_make_encoder(
    None, _sign_bytes, _encode_string, None, ": ", ", ", True, False, True,
)


def _signing_leaf(value: Any) -> str:
    """``value`` as :data:`_SIGNING_ENCODER` spells it: a ``str``, an
    exact ``int``, ``None`` or a ``bool`` directly, anything else (a
    write value, an event payload, a float, a subclass such as
    ``IntEnum``) through the encoder."""
    kind = type(value)
    if kind is str:
        return _encode_string(value)
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    return "".join(_SIGNING_ENCODER(value, 0))


#: The bytes tag as the signing JSON spells it: a payload without this
#: text holds no one-key dict keyed by it.
_SPELLED_BYTES_TAG = _encode_string(BYTES_TAG)


def _holds_bytes_tag(value: Any) -> bool:
    """Whether ``value`` holds, at any depth, a one-key dict keyed by the
    codec's bytes tag: what the codec stores ``bytes`` as, so such a
    value would read back as ``bytes`` or not decode at all."""
    if isinstance(value, dict):
        if len(value) == 1 and BYTES_TAG in value:
            return True
        inner: Iterable[Any] = value.values()
    elif isinstance(value, (list, tuple)):
        inner = value
    else:
        return False
    return any(map(_holds_bytes_tag, inner))


def _signing_read(read: KVRead) -> str:
    """``read.to_dict()`` as :data:`_SIGNING_ENCODER` spells it."""
    version = read.version
    spelled = f"[{', '.join(map(_signing_leaf, version))}]" if version else "null"
    return f'{{"k": {_signing_leaf(read.key)}, "v": {spelled}}}'


# Validation codes (subset of Fabric's TxValidationCode).
VALID = "VALID"
MVCC_READ_CONFLICT = "MVCC_READ_CONFLICT"
BAD_SIGNATURE = "BAD_SIGNATURE"
NOT_VALIDATED = "NOT_VALIDATED"


@dataclass(frozen=True)
class KVRead:
    """A key read during endorsement and the version that was observed.

    ``version=None`` records a read of a key that did not exist; the
    transaction is invalidated if the key exists at commit time.
    """

    key: str
    version: Optional[Version]

    def to_dict(self) -> Dict[str, Any]:
        return {"k": self.key, "v": list(self.version) if self.version else None}

    @staticmethod
    def from_dict(raw: Dict[str, Any]) -> "KVRead":
        version = tuple(raw["v"]) if raw.get("v") else None
        return KVRead(key=raw["k"], version=version)  # type: ignore[arg-type]


@dataclass(frozen=True)
class KVWrite:
    """A key write.  ``value=None`` with ``is_delete`` marks a deletion."""

    key: str
    value: Any
    is_delete: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return {"k": self.key, "v": self.value, "d": self.is_delete}

    @staticmethod
    def from_dict(raw: Dict[str, Any]) -> "KVWrite":
        return KVWrite(key=raw["k"], value=raw["v"], is_delete=bool(raw["d"]))


def _read_order(read: KVRead) -> Tuple[str, int, Tuple[int, ...]]:
    """Deterministic sort key for reads (``None`` versions sort first)."""
    if read.version is None:
        return (read.key, 0, ())
    return (read.key, 1, tuple(read.version))


@dataclass
class RWSet:
    """A transaction's simulated read/write set.

    Writes are keyed by state key so a second write to the same key inside
    one transaction silently replaces the first -- the Fabric behaviour the
    ME ingestion strategy is designed around.
    """

    reads: List[KVRead] = field(default_factory=list)
    writes: Dict[str, KVWrite] = field(default_factory=dict)
    #: Mutation counter: bumped by every mutator so payload memoization
    #: (see :meth:`Transaction.signable_payload`) can detect tampering
    #: that happens through the RWSet API after signing.
    _rev: int = field(default=0, repr=False, compare=False)

    def add_read(self, key: str, version: Optional[Version]) -> None:
        self._rev += 1
        self.reads.append(KVRead(key=key, version=version))

    def add_write(self, key: str, value: Any) -> None:
        self._rev += 1
        self.writes[key] = KVWrite(key=key, value=value)

    def add_delete(self, key: str) -> None:
        self._rev += 1
        self.writes[key] = KVWrite(key=key, value=None, is_delete=True)

    def to_dict(self) -> Dict[str, Any]:
        """Serialize with reads and writes in sorted key order.

        Serialization order must be a function of the *contents*, not of
        the insertion history: the endorser signs these bytes, and a
        transaction reloaded from the block store re-inserts writes in
        serialized order.  Sorting here makes the signing bytes -- and
        every downstream hash -- order-independent.
        """
        return {
            "reads": [read.to_dict() for read in sorted(self.reads, key=_read_order)],
            "writes": [
                self.writes[key].to_dict() for key in sorted(self.writes)
            ],
        }

    @staticmethod
    def from_dict(raw: Dict[str, Any]) -> "RWSet":
        rw_set = RWSet()
        rw_set.reads = [KVRead.from_dict(item) for item in raw["reads"]]
        for item in raw["writes"]:
            write = KVWrite.from_dict(item)
            rw_set.writes[write.key] = write
        return rw_set


@dataclass
class Transaction:
    """An endorsed transaction ready for ordering."""

    tx_id: str
    chaincode: str
    creator: str
    #: Logical timestamp supplied by the client (the event time).
    timestamp: int
    rw_set: RWSet
    #: Endorser's signature over the serialized RWSet.
    signature: bytes = b""
    validation_code: str = NOT_VALIDATED
    #: Optional chaincode event (Fabric's SetEvent: at most one per tx).
    event_name: str = ""
    event_payload: Any = None
    #: Memoized ``(rw_set revision, bytes)`` for :meth:`signable_payload`.
    #: The payload is consumed four times per transaction (the signature
    #: at endorsement, the data hash at cut, and the data-hash check and
    #: signature check at commit) but its inputs are frozen once
    #: endorsement signs them, so recomputing it is pure waste on the
    #: ingest hot path.  The cache is keyed by the RWSet's mutation
    #: counter so tampering through the RWSet API still changes the
    #: payload (and therefore breaks the data hash, as it must).
    _payload_cache: Optional[Tuple[int, bytes]] = field(
        default=None, repr=False, compare=False
    )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "tx_id": self.tx_id,
            "chaincode": self.chaincode,
            "creator": self.creator,
            "timestamp": self.timestamp,
            "rw_set": self.rw_set.to_dict(),
            "signature": self.signature,
            "validation_code": self.validation_code,
            "event_name": self.event_name,
            "event_payload": self.event_payload,
        }

    @staticmethod
    def from_dict(raw: Dict[str, Any]) -> "Transaction":
        return Transaction(
            tx_id=raw["tx_id"],
            chaincode=raw["chaincode"],
            creator=raw["creator"],
            timestamp=raw["timestamp"],
            rw_set=RWSet.from_dict(raw["rw_set"]),
            signature=raw["signature"],
            validation_code=raw["validation_code"],
            event_name=raw.get("event_name", ""),
            event_payload=raw.get("event_payload"),
        )

    def signable_payload(self) -> bytes:
        """The bytes an endorser signs (RWSet + identity + timestamp).

        They are :data:`_SIGNING_ENCODER`'s spelling of ``{"chaincode",
        "creator", "event": [name, payload], "rw_set": RWSet.to_dict(),
        "timestamp"}``, written from the leaves (:func:`_signing_leaf`)
        into the fixed skeleton of that sorted-key JSON, without
        building the dicts.

        Memoized: every field it covers is immutable once the endorser
        has signed (``validation_code`` mutates later but is deliberately
        outside the signed payload).  RWSet mutations bump the set's
        revision counter and invalidate the cache, so post-signing
        tampering is still reflected.

        A value the ledger cannot store raises :class:`ChaincodeError`:
        one outside JSON (:func:`_sign_bytes`), a dict whose keys do not
        sort (``{1: "a", "1": "b"}``), or a write value or event payload
        holding the codec's bytes tag (:func:`_holds_bytes_tag`; looked
        for only when the spelled payload contains the tag's text).
        """
        rw_set = self.rw_set
        cache = self._payload_cache
        if cache is not None and cache[0] == rw_set._rev:
            return cache[1]
        leaf = _signing_leaf
        try:
            # Leaves in the order the encoder meets them, so a transaction
            # with two bad values names the one it always named.
            chaincode, creator = leaf(self.chaincode), leaf(self.creator)
            name, event = leaf(self.event_name), leaf(self.event_payload)
            reads = ", ".join(
                [_signing_read(read) for read in sorted(rw_set.reads, key=_read_order)]
            ) if rw_set.reads else ""
            writes = rw_set.writes
            written = ", ".join([
                f'{{"d": {leaf(write.is_delete)}, "k": {leaf(write.key)}, "v": {leaf(write.value)}}}'
                for write in map(writes.__getitem__, sorted(writes))
            ])
            text = (
                f'{{"chaincode": {chaincode}, "creator": {creator}, "event": [{name}, {event}], '
                f'"rw_set": {{"reads": [{reads}], "writes": [{written}]}}, '
                f'"timestamp": {leaf(self.timestamp)}}}'
            )
        except TypeError as exc:
            raise ChaincodeError(f"cannot store transaction {self.tx_id}'s values: {exc}") from None
        if _SPELLED_BYTES_TAG in text and any(map(
            _holds_bytes_tag, [self.event_payload, *(write.value for write in writes.values())]
        )):
            raise ChaincodeError(
                f"cannot store transaction {self.tx_id}'s values: a one-key dict "
                f"keyed {BYTES_TAG!r} is how the codec stores bytes"
            )
        payload = text.encode("utf-8")
        self._payload_cache = (rw_set._rev, payload)
        return payload


@dataclass(frozen=True)
class BlockHeader:
    """Block header forming the hash chain."""

    number: int
    previous_hash: bytes
    data_hash: bytes

    def hash(self) -> bytes:
        """Hash of this header, referenced by the next block."""
        return crypto.sha256(
            self.number.to_bytes(8, "big") + self.previous_hash + self.data_hash
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "number": self.number,
            "previous_hash": self.previous_hash,
            "data_hash": self.data_hash,
        }

    @staticmethod
    def from_dict(raw: Dict[str, Any]) -> "BlockHeader":
        return BlockHeader(
            number=raw["number"],
            previous_hash=raw["previous_hash"],
            data_hash=raw["data_hash"],
        )


#: First byte of a framed block payload; doubles as the frame's version.
#: No pre-frame payload starts with it: those were one whole-block value,
#: ``{`` under the json codec and the dict tag ``0x09`` under binary.
FRAME_MAGIC = 0xF2

#: The frame before this one: one segment per transaction, a varint
#: length per segment.  Named when read, never parsed.
_PER_TRANSACTION_FRAME = 0xF1


#: One cumulative segment end of the frame's table, and two adjacent ones.
_END = struct.Struct("<I")
_END_PAIR = struct.Struct("<II")

_new_frame = tuple.__new__


class _Frame(NamedTuple):
    """A framed payload as parsed by :meth:`Block.from_payload`."""

    payload: bytes
    #: ``payload[body:]`` is the codec-level list of every segment:
    #: ``[header, head0, body0, write0_0, ..., head1, ...]``.
    body: int
    #: Write count of each transaction (``len(writes)`` is the tx count):
    #: the payload's own bytes when every count fits one varint byte.
    writes: Sequence[int]
    #: Offset of the u32 table of cumulative segment lengths, separators
    #: excluded: segment ``i`` spans ``ends[i - 1] .. ends[i]`` plus ``i``
    #: separators.  An end is unpacked where it is used, not at open.
    table: int
    #: Offset of segment 0, and the list separator's length.
    first: int
    step: int
    codec: Codec
    #: Receives ``ledger.txs_decoded`` for transactions built.
    metrics: MetricsRegistry

    def head(self, tx_index: int) -> int:
        """Segment index of transaction ``tx_index``'s head; its body
        follows, then its writes."""
        return 1 + 2 * tx_index + sum(self.writes[:tx_index])

    def segment(self, index: int) -> Any:
        """Decode segment ``index`` alone (0 is the header)."""
        payload = self.payload
        start = self.first + index * self.step
        if index:
            before, end = _END_PAIR.unpack_from(payload, self.table + 4 * index - 4)
        else:
            before, (end,) = 0, _END.unpack_from(payload, self.table)
        return self.codec.decode(payload[start + before : start + end])

    def all_segments(self) -> List[Any]:
        """Decode every segment, header included, with one codec call;
        a payload that decodes to anything but a list of the table's
        segment count is a :class:`CodecError`."""
        decoded = self.codec.decode(self.payload[self.body :])
        count = 1 + 2 * len(self.writes) + sum(self.writes)
        if type(decoded) is not list or len(decoded) != count:
            raise CodecError(
                f"framed block payload: the segment list does not decode "
                f"to a list of its {count} segments"
            )
        return decoded

    def segments(self, index: int, count: int) -> List[Any]:
        """Decode the ``count`` consecutive segments from ``index`` with
        one codec call (they are spelled as a list of their own).

        Only the run's two outer ends are read.  A wrong one can still
        spell a well-formed list of another length -- an end one short
        of its predecessor's cuts the run at the segment before -- so the
        length is checked: a transaction never comes back without a write
        it has."""
        prefix, separator, suffix = self.codec.list_affixes()
        payload, table = self.payload, self.table
        start = self.first + index * self.step
        (end,) = _END.unpack_from(payload, table + 4 * (index + count - 1))
        end += start + (count - 1) * self.step
        if index:
            start += _END.unpack_from(payload, table + 4 * index - 4)[0]
        parts: List[Any] = self.codec.decode(prefix + payload[start:end] + suffix)
        if len(parts) != count:
            raise CodecError(
                f"framed block payload: segments {index}..{index + count - 1} "
                f"decode to {len(parts)} values, not {count}"
            )
        return parts


class _PlainJson:
    """Decodes a segment as plain JSON, without the codec's hooks."""

    decode = staticmethod(json.loads)


_PLAIN_JSON = _PlainJson()


def _unreadable_frame(payload: bytes) -> str:
    """Why ``payload`` is not a :data:`FRAME_MAGIC` frame, naming the
    older format it is in."""
    if payload[:1] == bytes((_PER_TRANSACTION_FRAME,)):
        return (
            "block payload in the per-transaction frame (0xF1: one segment "
            f"per transaction, before the write-addressable frame "
            f"{FRAME_MAGIC:#x}) is not readable; re-ingest the ledger"
        )
    return (
        f"not a framed block payload (starts {bytes(payload[:8])!r}): "
        "blocks written before the framed format (one whole-block "
        "json/binary/compact value) are not readable; re-ingest the ledger"
    )


def _malformed(what: str) -> CodecError:
    return CodecError(f"framed block payload: {what} is not a segment of its shape")


def _header_from(raw: Any) -> BlockHeader:
    """The header whose decoded segment is ``raw``."""
    try:
        return BlockHeader.from_dict(raw)
    except (TypeError, KeyError):
        raise _malformed("the header") from None


def _transaction_from(parts: List[Any]) -> Transaction:
    """The transaction whose decoded segments -- head, body, then its
    writes -- are ``parts``; segments of the wrong shape (a well-framed
    payload holding other values) are a :class:`CodecError`."""
    try:
        (tx_id, timestamp), body, *writes = parts
        chaincode, creator, reads, signature, validation_code, event_name, event_payload = body
        rw_set = RWSet()
        rw_set.reads = [KVRead.from_dict(read) for read in reads]
        rw_set.writes = {
            key: KVWrite(key=key, value=value, is_delete=bool(is_delete))
            for key, value, is_delete in writes
        }
    except (TypeError, ValueError, KeyError, AttributeError):
        raise _malformed("a transaction's head, body or write") from None
    return Transaction(
        tx_id=tx_id,
        chaincode=chaincode,
        creator=creator,
        timestamp=timestamp,
        rw_set=rw_set,
        signature=signature,
        validation_code=validation_code,
        event_name=event_name,
        event_payload=event_payload,
    )


class _LazyTransactions(Sequence):
    """``block.transactions`` while the block's payload is still framed.

    Indexing decodes only that transaction's segments; iterating (or slicing,
    or comparing) decodes the whole block in one codec call.  The view
    points at its block and the block never points back, so dropping the
    block frees its payload at once instead of waiting for the cyclic GC.
    """

    __slots__ = ("_block",)

    def __init__(self, block: "Block") -> None:
        self._block = block

    def __len__(self) -> int:
        frame = self._block._frame
        if frame is None:  # fully decoded since this view was taken
            return len(self._block._materialize())
        return len(frame.writes)

    def __getitem__(self, index: Any) -> Any:
        if isinstance(index, slice):
            return self._block._materialize()[index]
        return self._block._transaction(index)

    def __iter__(self) -> Iterator[Transaction]:
        return iter(self._block._materialize())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _LazyTransactions):
            other = other._block._materialize()
        return self._block._materialize() == other


class Block:
    """One ledger block: header + ordered transactions.

    Built either eagerly from its parts (the orderer, tests) or lazily
    over a framed payload (:meth:`from_payload`, every block-store read).
    A lazy block decodes on demand and memoises what it decoded, so
    ``block.transactions[i] is block.transactions[i]`` and a mutation made
    through it is seen by :meth:`verify_data_hash`.  Once everything is
    decoded it drops the payload and is indistinguishable from an eager
    block.

    Readers of one block object may take turns on it (a GHFK iterator
    keeps its block across results): a segment a history read decoded is
    the one its transaction is later built from, and a transaction built
    once is the one every later reader gets.
    """

    __slots__ = ("_header", "_txs", "_frame", "_segments", "_decoded")

    def __init__(
        self, header: BlockHeader, transactions: List[Transaction]
    ) -> None:
        self._header: Optional[BlockHeader] = header
        self._txs: Optional[List[Transaction]] = transactions
        #: Set while lazy; cleared once everything is decoded.
        self._frame: Optional[_Frame] = None
        #: Segments decoded one at a time, by segment index, while lazy:
        #: the heads and writes :meth:`history_write` reads, and the
        #: segments of every transaction built.
        self._segments: Dict[int, Any] = {}
        #: The transactions built from them and handed out, by index.
        self._decoded: Dict[int, Transaction] = {}

    # -- framed payload -------------------------------------------------------

    def write_values(self, codec: Codec) -> WriteValues:
        """Every transaction's write values encoded with ``codec`` (a
        deletion's ``None`` too), by key: encoded once, spliced into the
        write segments by :meth:`to_payload` and into the state records."""
        encode = codec.encode
        return [
            {key: encode(write.value) for key, write in tx.rw_set.writes.items()}
            for tx in self.transactions
        ]

    def to_payload(self, codec: Codec, values: Optional[WriteValues] = None) -> bytes:
        """Serialize as a framed payload.

        Layout: :data:`FRAME_MAGIC`, a varint transaction count, one
        varint write count per transaction, one little-endian u32 per
        segment (the cumulative segment lengths), then the segments laid
        out as one codec-level list.  The segments are the header, then
        per transaction its *head* ``[tx_id, timestamp]``, its *body*
        ``[chaincode, creator, reads, signature, validation_code,
        event_name, event_payload]`` and one ``[key, value, is_delete]``
        per write in sorted-key order -- the order :meth:`RWSet.to_dict`
        lists them in and the position :class:`HistoryDB` records.  The
        table lets a reader decode any single segment, the list syntax
        lets it decode all of them with one call (see
        :meth:`Codec.list_affixes`).  Nothing signed or hashed depends on
        this layout.

        A write segment is spelled from its parts with the same list
        syntax, its value taken from ``values`` (:meth:`write_values`,
        computed here when not given): the bytes of encoding the segment
        whole.
        """
        encode = codec.encode
        if values is None:
            values = self.write_values(codec)
        prefix, separator, suffix = codec.list_affixes()
        live = separator + encode(False) + suffix
        deleted = separator + encode(True) + suffix
        segments = [encode(self.header.to_dict())]
        table = bytearray((FRAME_MAGIC,))
        txs = self.transactions
        write_uvarint(len(txs), table)
        for tx, encoded in zip(txs, values):
            rw_set = tx.rw_set
            writes = rw_set.writes
            keys = sorted(writes)
            write_uvarint(len(keys), table)
            segments.append(encode([tx.tx_id, tx.timestamp]))
            segments.append(encode([
                tx.chaincode,
                tx.creator,
                [read.to_dict() for read in sorted(rw_set.reads, key=_read_order)],
                tx.signature,
                tx.validation_code,
                tx.event_name,
                tx.event_payload,
            ]))
            for key in keys:
                write = writes[key]
                segments.append(b"".join((
                    prefix, encode(write.key), separator, encoded[key],
                    deleted if write.is_delete else live,
                )))
        ends = list(accumulate(map(len, segments)))
        return b"".join((
            table, struct.pack(f"<{len(ends)}I", *ends),
            prefix, separator.join(segments), suffix,
        ))

    @staticmethod
    def from_payload(
        payload: bytes, codec: Codec, metrics: MetricsRegistry = NULL_REGISTRY
    ) -> "Block":
        """A lazy block over a payload written by :meth:`to_payload`.

        Only the frame is parsed and validated here (magic, a segment
        table inside the payload whose segments end exactly at the
        payload's end -- the table's last entry, the one end read at
        open); a malformed frame, or one of an older format, raises
        :class:`CodecError`.  An interior end is read by the segment
        read that uses it, and a wrong one makes that decode fail.
        ``metrics`` receives ``ledger.txs_decoded`` for transactions
        built.
        """
        if not payload or payload[0] != FRAME_MAGIC:
            raise CodecError(_unreadable_frame(payload))
        tx_count, position = read_uvarint(payload, 1)
        writes: Sequence[int] = payload[position : position + tx_count]
        if len(writes) == tx_count and (not tx_count or max(writes) < 0x80):
            position += tx_count
        else:
            writes, position = read_uvarints(payload, position, tx_count)
        count = 1 + 2 * tx_count + sum(writes)
        body = position + 4 * count
        if body > len(payload):
            raise CodecError(
                f"framed block payload: a {count}-segment table needs "
                f"{body} bytes, payload has {len(payload)}"
            )
        (last,) = _END.unpack_from(payload, body - 4)
        prefix, separator, suffix = codec.list_affixes()
        first, step = body + len(prefix), len(separator)
        needed = first + last + (count - 1) * step + len(suffix)
        if needed != len(payload):
            raise CodecError(
                f"framed block payload: {count} segments need {needed} "
                f"bytes, payload has {len(payload)}"
            )
        block = Block.__new__(Block)
        block._header = block._txs = None
        # ``tuple.__new__`` directly: the named tuple's own ``__new__`` is a
        # Python function that only repeats it, once per block read.
        block._frame = _new_frame(
            _Frame, (payload, body, writes, position, first, step, codec, metrics)
        )
        block._segments = {}
        block._decoded = {}
        return block

    def _transaction(self, index: int) -> Transaction:
        """Transaction ``index``, decoding only its segments."""
        frame = self._frame
        if frame is None:  # fully decoded since the caller took its view
            return self._materialize()[index]
        count = len(frame.writes)
        if index < 0:
            index += count
        if not 0 <= index < count:
            raise IndexError("block transaction index out of range")
        tx = self._decoded.get(index)
        if tx is None:
            head = frame.head(index)
            known = self._segments
            if head not in known:
                frame.metrics.increment(metric_names.TXS_DECODED)
            # A segment history already read is the one the transaction
            # is built from: the values handed out stay the ones it read.
            parts = [
                known.get(head + offset, part)
                for offset, part in enumerate(
                    frame.segments(head, 2 + frame.writes[index])
                )
            ]
            tx = self._decoded[index] = _transaction_from(parts)
        return tx

    def history_write(
        self, tx_index: int, write_index: int, key: str
    ) -> Tuple[Any, bool, int, str, bool]:
        """``(value, is_delete, timestamp, tx_id, decoded_head)`` of write
        ``write_index`` -- the position among transaction ``tx_index``'s
        writes in sorted key order -- which must be the write to ``key``:
        what one GHFK result needs.

        On a lazy block this decodes the transaction's head and that one
        write segment, each at most once, and builds no
        :class:`Transaction`.  ``decoded_head`` says whether this call
        decoded the head, i.e. the transaction's first decode: the block
        does not tick ``ledger.txs_decoded`` for it, the caller counts it
        with the result (:class:`~repro.fabric.historydb.HistoryDB` does,
        in the one registry call it makes per result).  A head is
        published to the memo only with a result, so a read that fails
        leaves nothing decoded-but-uncounted behind.  A transaction
        already handed out through :attr:`transactions` is read instead
        of its segments, so a mutation made through the view is what
        history reports.  A location that names no write to ``key``
        raises :class:`LedgerError`.
        """
        frame = self._frame
        tx: Optional[Transaction] = None
        if frame is None:
            txs = self._materialize()
            if 0 <= tx_index < len(txs):
                tx = txs[tx_index]
        elif 0 <= tx_index < len(frame.writes):
            tx = self._decoded.get(tx_index)
            writes = frame.writes
            if tx is None and 0 <= write_index < writes[tx_index]:
                # :meth:`_Frame.head` and :meth:`_Frame.segment` inline:
                # neither segment is the header, so each has two table ends.
                head = 1 + 2 * tx_index + sum(writes[:tx_index])
                payload, table, first, step = frame.payload, frame.table, frame.first, frame.step
                segments = self._segments
                tx_head = segments.get(head)
                decoded_head = tx_head is None
                if decoded_head:
                    before, end = _END_PAIR.unpack_from(payload, table + 4 * head - 4)
                    start = first + head * step
                    tx_head = frame.codec.decode(payload[start + before : start + end])
                index = head + 2 + write_index
                write = segments.get(index)
                if write is None:
                    before, end = _END_PAIR.unpack_from(payload, table + 4 * index - 4)
                    start = first + index * step
                    write = frame.codec.decode(payload[start + before : start + end])
                    segments[index] = write
                try:
                    written_key, value, is_delete = write
                    tx_id, timestamp = tx_head
                except (TypeError, ValueError):
                    raise _malformed(f"transaction {tx_index}'s head or write {write_index}") from None
                if written_key == key:
                    if decoded_head:
                        segments[head] = tx_head
                    return value, bool(is_delete), timestamp, tx_id, decoded_head
        if tx is not None:
            writes = tx.rw_set.writes
            found = writes.get(key)
            if (
                found is not None
                and 0 <= write_index < len(writes)
                and sorted(writes)[write_index] == key
            ):
                return found.value, found.is_delete, tx.timestamp, tx.tx_id, False
        raise LedgerError(
            f"history index names block {self.number} tx {tx_index} write "
            f"{write_index} for key {key!r}, but that is not a write to the key"
        )

    def history_keys(self) -> Tuple[int, List[Tuple[int, List[str]]]]:
        """``(number, [(tx_index, keys), ...])``: for each VALID
        transaction, in block order, the keys it wrote in sorted order --
        a key's position in ``keys`` is its write's position, the
        ``write`` of a history location.  What
        :class:`~repro.fabric.historydb.HistoryDB` indexes.

        On a lazy block this is one codec call over the segment list,
        which yields the header too; it builds no :class:`Transaction`,
        memoises no segment and ticks no ``ledger.txs_decoded``.  A
        transaction already handed out through :attr:`transactions` is
        read instead of its segments, as is every transaction of an eager
        or fully decoded block.  Segments of the wrong shape raise
        :class:`CodecError` wherever building the transactions would.
        """
        frame = self._frame
        if frame is None:
            txs = self._materialize()
            return self.header.number, [
                (tx_num, sorted(tx.rw_set.writes))
                for tx_num, tx in enumerate(txs)
                if tx.validation_code == VALID
            ]
        decoded = frame.all_segments()
        header = self._header
        if header is None:
            header = self._header = _header_from(decoded[0])
        handed_out = self._decoded
        written = []
        head = 1
        try:
            for tx_num, count in enumerate(frame.writes):
                end = head + 2 + count
                tx = handed_out.get(tx_num)
                if tx is not None:
                    if tx.validation_code == VALID:
                        written.append((tx_num, sorted(tx.rw_set.writes)))
                else:
                    # The shape checks building the transaction makes, read
                    # off the segments in place: head and body unpack, its
                    # reads parse and its write keys hash.
                    _, _ = decoded[head]
                    _, _, reads, _, code, _, _ = decoded[head + 1]
                    if reads != []:
                        for read in reads:
                            KVRead.from_dict(read)
                    if count == 1:
                        key, _, _ = decoded[head + 2]
                        hash(key)
                        keys = [key]
                    else:
                        keys = [key for key, _, _ in decoded[head + 2 : end]]
                        hash(tuple(keys))
                    if code == VALID:
                        written.append((tx_num, keys))
                head = end
        except (TypeError, ValueError, KeyError, AttributeError):
            raise _malformed("a transaction's head, body or write") from None
        return header.number, written

    def first_undecodable(self) -> Optional[Tuple[Optional[int], Optional[str]]]:
        """Where a lazy block first fails to decode, one segment at a time:
        ``(None, None)`` for the header, ``(tx_index, None)`` for a
        transaction's head or body, ``(tx_index, key)`` for a write, its
        key read as plain JSON (without the codec's hooks, which are what
        refused it).  ``None`` when every segment decodes alone, or the
        block is not framed.  ``repro doctor`` names a block that will
        not open with it; no read path calls it."""
        frame = self._frame
        if frame is None:
            return None
        tx_index: Optional[int] = None
        index = 0
        try:
            frame.segment(0)
            for tx_index, count in enumerate(frame.writes):
                for index in range(index + 1, index + 3 + count):
                    frame.segment(index)
        except CodecError:
            if tx_index is None or index < frame.head(tx_index) + 2:
                return tx_index, None
            try:
                write = frame._replace(codec=_PLAIN_JSON).segment(index)
            except ValueError:
                return tx_index, None
            key = write[0] if type(write) is list and write else None
            return tx_index, key if type(key) is str else None
        return None

    def _materialize(self) -> List[Transaction]:
        """Decode everything still framed -- header included -- with one
        codec call, keeping the transactions already handed out."""
        frame = self._frame
        if frame is None:
            assert self._txs is not None
            return self._txs
        decoded = frame.all_segments()
        # A segment history already read stays the one its transaction is
        # built from: the values handed out are the ones the hash covers.
        known = self._segments
        handed_out = self._decoded
        txs = []
        fresh = 0
        head = 1
        for index, count in enumerate(frame.writes):
            tx = handed_out.get(index)
            if tx is None:
                parts = decoded[head : head + 2 + count]
                if head not in known:
                    fresh += 1
                if known:
                    parts = [known.get(head + offset, part) for offset, part in enumerate(parts)]
                tx = handed_out[index] = _transaction_from(parts)
            txs.append(tx)
            head += 2 + count
        frame.metrics.increment(metric_names.TXS_DECODED, fresh)
        if self._header is None:
            self._header = _header_from(decoded[0])
        self._txs = txs
        self._frame = None
        self._segments = {}  # dropped with the payload they were decoded from
        return txs

    # -- the parts --------------------------------------------------------------

    @property
    def header(self) -> BlockHeader:
        header = self._header
        if header is None:
            # Only a framed block lacks its header: decoding everything
            # sets the header before it drops the frame.
            assert self._frame is not None
            header = self._header = _header_from(self._frame.segment(0))
        return header

    @property
    def transactions(self) -> Sequence[Transaction]:
        if self._frame is None:
            return self._materialize()
        return _LazyTransactions(self)

    @property
    def number(self) -> int:
        return self.header.number

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Block):
            return NotImplemented
        return (
            self.header == other.header
            and self._materialize() == other._materialize()
        )

    __hash__ = None  # type: ignore[assignment] - mutable, like a list

    def __repr__(self) -> str:
        return f"Block(header={self.header!r}, transactions={self._materialize()!r})"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "header": self.header.to_dict(),
            "transactions": [tx.to_dict() for tx in self.transactions],
        }

    @staticmethod
    def from_dict(raw: Dict[str, Any]) -> "Block":
        return Block(
            header=BlockHeader.from_dict(raw["header"]),
            transactions=[Transaction.from_dict(item) for item in raw["transactions"]],
        )

    @staticmethod
    def compute_data_hash(transactions: Iterable[Transaction]) -> bytes:
        """Deterministic hash over the ordered transaction ids + payloads,
        fed to one SHA-256 as they come."""
        hasher = hashlib.sha256()
        update = hasher.update
        for tx in transactions:
            update(tx.tx_id.encode("utf-8"))
            update(tx.signable_payload())
        return hasher.digest()

    def verify_data_hash(self) -> None:
        """Raise :class:`LedgerError` if transactions don't match the header."""
        expected = self.compute_data_hash(self.transactions)
        if expected != self.header.data_hash:
            raise LedgerError(
                f"block {self.number}: data hash mismatch "
                f"({expected.hex()[:12]} != {self.header.data_hash.hex()[:12]})"
            )


#: Hash value linked to by the genesis block.
GENESIS_PREVIOUS_HASH = b"\x00" * 32
