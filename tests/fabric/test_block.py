"""Tests for the block data model: RWSets, serialization, hashes."""

from __future__ import annotations

import dataclasses
import enum
import struct
from itertools import accumulate

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common import metrics as metric_names
from repro.common.codec import JsonCodec, write_uvarint
from repro.common.errors import ChaincodeError, CodecError, LedgerError
from repro.common.metrics import MetricsRegistry
from repro.fabric.block import (
    _SIGNING_ENCODER,
    FRAME_MAGIC,
    GENESIS_PREVIOUS_HASH,
    VALID,
    Block,
    BlockHeader,
    KVRead,
    KVWrite,
    RWSet,
    Transaction,
)
from tests.helpers import BINARY_GOLDEN_PAYLOAD, DecodeSpyCodec, per_transaction_frame


def make_tx(tx_id="tx-1", key="k", value="v", timestamp=5) -> Transaction:
    rw_set = RWSet()
    rw_set.add_read("other", (0, 1))
    rw_set.add_write(key, value)
    return Transaction(
        tx_id=tx_id,
        chaincode="cc",
        creator="alice",
        timestamp=timestamp,
        rw_set=rw_set,
        signature=b"\x01\x02",
    )


def make_block(number=0, previous=GENESIS_PREVIOUS_HASH, txs=None) -> Block:
    transactions = txs if txs is not None else [make_tx()]
    header = BlockHeader(
        number=number,
        previous_hash=previous,
        data_hash=Block.compute_data_hash(transactions),
    )
    return Block(header=header, transactions=transactions)


class TestRWSet:
    def test_one_write_per_key(self):
        """Section II: one transaction persists only one state per key."""
        rw_set = RWSet()
        rw_set.add_write("k", "first")
        rw_set.add_write("k", "second")
        assert len(rw_set.writes) == 1
        assert rw_set.writes["k"].value == "second"

    def test_delete_replaces_write(self):
        rw_set = RWSet()
        rw_set.add_write("k", "v")
        rw_set.add_delete("k")
        assert rw_set.writes["k"].is_delete

    def test_reads_accumulate(self):
        rw_set = RWSet()
        rw_set.add_read("a", None)
        rw_set.add_read("a", (1, 2))
        assert rw_set.reads == [KVRead("a", None), KVRead("a", (1, 2))]

    def test_round_trip(self):
        rw_set = RWSet()
        rw_set.add_read("r", (3, 4))
        rw_set.add_read("absent", None)
        rw_set.add_write("w", {"nested": [1, 2]})
        rw_set.add_delete("d")
        restored = RWSet.from_dict(rw_set.to_dict())
        assert sorted(restored.reads, key=repr) == sorted(rw_set.reads, key=repr)
        assert restored.writes == rw_set.writes

    def test_serialization_is_insertion_order_independent(self):
        """Two RWSets with the same contents serialize identically.

        The endorser signs the serialized RWSet, so serialization order
        must be a function of contents alone: a transaction reloaded
        from the block store (which re-inserts writes in serialized
        order) must reproduce the exact signing bytes.
        """
        forward = RWSet()
        forward.add_read("a", (1, 0))
        forward.add_read("b", None)
        forward.add_write("x", "1")
        forward.add_write("y", "2")
        backward = RWSet()
        backward.add_write("y", "2")
        backward.add_write("x", "1")
        backward.add_read("b", None)
        backward.add_read("a", (1, 0))
        assert forward.to_dict() == backward.to_dict()
        # Round-tripping is a fixpoint: serialize(parse(serialize(s)))
        # == serialize(s), which is what keeps signatures verifiable
        # after a reload.
        assert RWSet.from_dict(forward.to_dict()).to_dict() == forward.to_dict()

    def test_signing_bytes_stable_across_reload(self):
        """signable_payload survives a to_dict/from_dict round trip."""
        tx = make_tx()
        restored = Transaction.from_dict(tx.to_dict())
        assert restored.signable_payload() == tx.signable_payload()

    def test_signable_payload_reflects_tampering(self):
        """The payload memo must not mask post-signing RWSet mutation."""
        tx = make_tx()
        before = tx.signable_payload()
        tx.rw_set.add_write("evil", "tampered")
        assert tx.signable_payload() != before


class TestSerialization:
    @pytest.mark.parametrize("codec", [JsonCodec()], ids=["json"])
    def test_block_round_trip_through_codec(self, codec):
        block = make_block(txs=[make_tx("tx-1"), make_tx("tx-2", key="k2")])
        restored = Block.from_dict(codec.decode(codec.encode(block.to_dict())))
        assert restored.number == block.number
        assert restored.header == block.header
        assert len(restored.transactions) == 2
        assert restored.transactions[0].tx_id == "tx-1"
        assert restored.transactions[0].rw_set.writes == block.transactions[0].rw_set.writes
        assert restored.transactions[0].signature == b"\x01\x02"

    def test_transaction_round_trip_preserves_validation_code(self):
        tx = make_tx()
        tx.validation_code = "VALID"
        assert Transaction.from_dict(tx.to_dict()).validation_code == "VALID"

    def test_every_transaction_field_is_serialized(self):
        """Nothing rides on a transaction outside the block: each field
        but the payload memo is a ``to_dict`` key and survives the trip."""
        tx = make_tx()
        tx.validation_code = "VALID"
        tx.event_name = "shipped"
        tx.event_payload = {"n": 1}
        names = {f.name for f in dataclasses.fields(Transaction)} - {"_payload_cache"}
        raw = tx.to_dict()
        assert set(raw) == names
        restored = Transaction.from_dict(raw)
        blank = Transaction(tx_id="", chaincode="", creator="", timestamp=0, rw_set=RWSet())
        for name in names:
            # Non-default on the way in, so a field ``from_dict`` drops shows.
            assert getattr(tx, name) != getattr(blank, name)
            assert getattr(restored, name) == getattr(tx, name)


class _Str(str):
    pass


class _Int(int):
    pass


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 20


#: State keys: ASCII, non-ASCII and ``\x00``-separated composites.
signing_keys = st.text(min_size=1, max_size=6) | st.text(
    alphabet=st.sampled_from("ab\x00\x01é北ключ"), min_size=1, max_size=6
)
signing_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**200)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=6)
    | st.binary(max_size=6)
    | st.builds(_Str, st.text(max_size=4))
    | st.builds(_Int, st.integers(-9, 9))
    | st.sampled_from(list(_Level))
)
signing_values = st.recursive(
    signing_leaves,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(signing_keys, inner, max_size=3),
    max_leaves=8,
)


@st.composite
def signed_transactions(draw) -> Transaction:
    rw_set = RWSet()
    for key in draw(st.lists(signing_keys, max_size=3)):
        version = draw(st.none() | st.tuples(st.integers(0, 2**40), st.integers(0, 99)))
        rw_set.add_read(key, version)
    for key in draw(st.lists(signing_keys, max_size=4, unique=True)):
        if draw(st.booleans()):
            rw_set.add_delete(key)
        else:
            rw_set.add_write(key, draw(signing_values))
    return Transaction(
        tx_id="tx",
        chaincode=draw(st.sampled_from(["cc", _Str("cc")])),
        creator=draw(signing_keys),
        timestamp=draw(st.integers(0, 2**70) | st.builds(_Int, st.integers(0, 9))),
        rw_set=rw_set,
        event_name=draw(st.sampled_from(["", "shipped", "é"])),
        event_payload=draw(signing_values),
    )


class TestSigningBytes:
    """``signable_payload`` spells its JSON from the leaves; the bytes
    are the signing encoder's over the transaction's dict form."""

    @given(signed_transactions())
    def test_the_leaf_spelling_is_the_encoders(self, tx):
        dict_form = {
            "rw_set": tx.rw_set.to_dict(),
            "creator": tx.creator,
            "timestamp": tx.timestamp,
            "chaincode": tx.chaincode,
            "event": [tx.event_name, tx.event_payload],
        }
        assert tx.signable_payload() == "".join(_SIGNING_ENCODER(dict_form, 0)).encode()

    @pytest.mark.parametrize(
        "value", [{1, 2}, object(), {1: "a", "1": "b"}], ids=["set", "object", "unsortable-keys"]
    )
    @pytest.mark.parametrize("where", ["write", "nested", "event"])
    def test_an_unstorable_value_raises_chaincode_error(self, value, where):
        tx = make_tx(value=[1, {"x": value}] if where == "nested" else value)
        if where == "event":
            tx = make_tx()
            tx.event_payload = value
        with pytest.raises(ChaincodeError, match="cannot store"):
            tx.signable_payload()


class TestHashes:
    def test_data_hash_depends_on_tx_content(self):
        hash1 = Block.compute_data_hash([make_tx(value="a")])
        hash2 = Block.compute_data_hash([make_tx(value="b")])
        assert hash1 != hash2

    def test_data_hash_depends_on_order(self):
        tx1, tx2 = make_tx("t1"), make_tx("t2")
        assert Block.compute_data_hash([tx1, tx2]) != Block.compute_data_hash([tx2, tx1])

    def test_verify_data_hash_accepts_valid(self):
        make_block().verify_data_hash()

    def test_verify_data_hash_rejects_tampering(self):
        block = make_block()
        block.transactions[0].rw_set.add_write("k", "tampered")
        with pytest.raises(LedgerError, match="data hash mismatch"):
            block.verify_data_hash()

    def test_header_hash_changes_with_number(self):
        block1 = make_block(number=0)
        header2 = BlockHeader(1, block1.header.previous_hash, block1.header.data_hash)
        assert block1.header.hash() != header2.hash()


# --------------------------------------------------------------------------
# Framed payload + lazy block
# --------------------------------------------------------------------------

CODECS = [JsonCodec()]
codec_ids = ["json"]


def ten_tx_block() -> Block:
    return make_block(
        number=3, txs=[make_tx(f"tx-{i}", key=f"k{i}", value=i) for i in range(10)]
    )


values = st.none() | st.integers(-5, 5) | st.text(max_size=6) | st.binary(max_size=6)


@st.composite
def transactions(draw, index: int, max_writes: int = 4) -> Transaction:
    rw_set = RWSet()
    for key in draw(st.lists(st.sampled_from("abcdef"), max_size=3, unique=True)):
        rw_set.add_read(key, draw(st.none() | st.tuples(st.integers(0, 9), st.integers(0, 9))))
    # Possibly empty write set; deletes mixed with writes.
    for key in draw(st.lists(st.sampled_from("uvwxyz"), max_size=max_writes, unique=True)):
        if draw(st.booleans()):
            rw_set.add_delete(key)
        else:
            rw_set.add_write(key, draw(values | st.dictionaries(st.text(max_size=3), values, max_size=2)))
    return Transaction(
        tx_id=f"tx-{index}",
        chaincode="cc",
        creator=draw(st.sampled_from(["alice", "bob"])),
        timestamp=draw(st.integers(0, 1000)),
        rw_set=rw_set,
        signature=draw(st.binary(max_size=8)),
        validation_code=draw(st.sampled_from(["VALID", "MVCC_READ_CONFLICT", "BAD_SIGNATURE"])),
        event_name=draw(st.sampled_from(["", "shipped"])),
        event_payload=draw(values),
    )


@st.composite
def blocks(draw, max_txs: int = 6, max_writes: int = 4) -> Block:
    count = draw(st.integers(0, max_txs))
    return make_block(
        number=draw(st.integers(0, 2**40)),
        txs=[draw(transactions(index, max_writes)) for index in range(count)],
    )


#: Decoded values of any shape, for segments that are not what they claim.
junk = st.recursive(
    values | st.booleans(),
    lambda inner: st.lists(inner, max_size=8)
    | st.dictionaries(st.sampled_from(["k", "v", "number", "data_hash"]), inner, max_size=3),
    max_leaves=10,
)


class TestFramedPayload:
    @pytest.mark.parametrize("codec", CODECS, ids=codec_ids)
    @given(block=blocks())
    def test_lazy_block_equals_the_eagerly_built_one(self, codec, block):
        """from_payload(to_payload(b)) is b, whichever way it is read."""
        payload = block.to_payload(codec)
        eager = Block.from_dict(codec.decode(codec.encode(block.to_dict())))
        assert Block.from_payload(payload, codec) == eager
        # One segment at a time, newest first, then the header.
        lazy = Block.from_payload(payload, codec)
        assert len(lazy.transactions) == len(eager.transactions)
        for index in reversed(range(len(eager.transactions))):
            assert lazy.transactions[index] == eager.transactions[index]
        assert lazy.header == eager.header
        assert lazy.to_dict() == eager.to_dict()
        lazy.verify_data_hash()
        # The frame re-encodes to the very same bytes.
        assert lazy.to_payload(codec) == payload

    @pytest.mark.parametrize("codec", CODECS, ids=codec_ids)
    def test_sequence_protocol_of_the_lazy_view(self, codec):
        eager = ten_tx_block()
        lazy = Block.from_payload(eager.to_payload(codec), codec)
        view = lazy.transactions
        assert len(view) == 10
        assert view[-1].tx_id == "tx-9"
        assert view[-10].tx_id == "tx-0"
        for bad in (10, -11):
            with pytest.raises(IndexError):
                view[bad]
        assert [tx.tx_id for tx in view[2:5]] == ["tx-2", "tx-3", "tx-4"]
        assert view == eager.transactions
        assert lazy.transactions == Block.from_payload(eager.to_payload(codec), codec).transactions
        assert lazy == eager and eager == lazy
        assert lazy != make_block(number=4)
        assert eager.transactions[3] in lazy.transactions
        # Fully decoded now: a plain list, like an eager block's.
        assert lazy.transactions is lazy.transactions
        assert isinstance(lazy.transactions, list)

    @pytest.mark.parametrize("codec", CODECS, ids=codec_ids)
    def test_two_and_three_byte_segment_lengths_round_trip(self, codec):
        txs = [
            make_tx("m", value="v" * 200),
            make_tx("l", value="v" * 20_000),
            make_tx("m2", value="w" * 300),
        ]
        sizes = [len(codec.encode(tx.to_dict())) for tx in txs]
        assert 128 <= sizes[0] < 16_384 <= sizes[1]
        block = make_block(txs=txs)
        lazy = Block.from_payload(block.to_payload(codec), codec)
        assert [lazy.transactions[i] for i in (2, 0, 1)] == [txs[2], txs[0], txs[1]]
        assert Block.from_payload(block.to_payload(codec), codec) == block

    def test_decoded_transactions_keep_their_identity(self):
        codec = JsonCodec()
        lazy = Block.from_payload(ten_tx_block().to_payload(codec), codec)
        first = lazy.transactions[4]
        assert lazy.transactions[4] is first
        assert lazy.transactions[-6] is first
        # ... across the switch to the fully decoded list, too.
        assert list(lazy.transactions)[4] is first
        assert lazy.transactions[4] is first

    @pytest.mark.parametrize("touch_all_first", [False, True])
    def test_tampering_through_the_lazy_view_breaks_the_data_hash(self, touch_all_first):
        codec = JsonCodec()
        lazy = Block.from_payload(ten_tx_block().to_payload(codec), codec)
        if touch_all_first:
            lazy.verify_data_hash()
        lazy.transactions[7].rw_set.add_write("k7", "tampered")
        with pytest.raises(LedgerError, match="data hash mismatch"):
            lazy.verify_data_hash()

    def test_one_transaction_is_one_small_decode_and_all_is_one_decode(self):
        """The two read paths are a single codec call each: GHFK's
        ``transactions[i]`` decodes segment i alone (never the header),
        a full scan decodes the whole body -- header included -- once."""
        payload = ten_tx_block().to_payload(JsonCodec())
        metrics = MetricsRegistry()

        codec = DecodeSpyCodec()
        lazy = Block.from_payload(payload, codec, metrics)
        assert codec.decoded == []  # opening the frame decodes nothing
        assert lazy.transactions[6].tx_id == "tx-6"
        assert lazy.transactions[6].tx_id == "tx-6"
        assert len(codec.decoded) == 1 and codec.decoded[0] < len(payload) // 8
        assert metrics.snapshot().counter(metric_names.TXS_DECODED) == 1
        assert lazy.number == 3
        assert len(codec.decoded) == 2 and codec.decoded[1] < len(payload) // 8

        codec = DecodeSpyCodec()
        scanned = Block.from_payload(payload, codec, metrics)
        assert [tx.tx_id for tx in scanned.transactions] == [f"tx-{i}" for i in range(10)]
        assert scanned.number == 3
        scanned.verify_data_hash()
        assert len(codec.decoded) == 1 and codec.decoded[0] > len(payload) * 3 // 4
        assert metrics.snapshot().counter(metric_names.TXS_DECODED) == 11

        # A scan after point reads decodes only what is still framed.
        lazy.verify_data_hash()
        assert metrics.snapshot().counter(metric_names.TXS_DECODED) == 20

    def test_a_history_read_decodes_the_head_and_one_write(self):
        """What a GHFK result costs: the transaction's ``[tx_id,
        timestamp]`` head and the one write asked for -- not the body
        (reads, signature) and not the sibling writes."""
        tx = make_tx("tx-wide", key="k0", value="v" * 300)
        for index in range(1, 6):
            tx.rw_set.add_write(f"k{index}", "v" * 300)
        payload = make_block(number=3, txs=[tx]).to_payload(JsonCodec())
        metrics = MetricsRegistry()
        codec = DecodeSpyCodec()
        lazy = Block.from_payload(payload, codec, metrics)
        # The last field: this call decoded the head, the transaction's
        # first decode (the caller counts it, the block does not).
        assert lazy.history_write(0, 4, "k4") == ("v" * 300, False, 5, "tx-wide", True)
        assert len(codec.decoded) == 2  # head, then write 4
        assert codec.decoded[0] < 20 and codec.decoded[1] < 320
        # Another write of the same transaction: its segment alone.
        assert lazy.history_write(0, 1, "k1") == ("v" * 300, False, 5, "tx-wide", False)
        assert len(codec.decoded) == 3
        # Both memoised, and shared with the transaction built later.
        first, *_, decoded_head = lazy.history_write(0, 4, "k4")
        assert not decoded_head
        assert len(codec.decoded) == 3
        assert lazy.transactions[0].rw_set.writes["k4"].value is first
        # Built from the memoised head: not a first decode either.
        assert metrics.snapshot().counter(metric_names.TXS_DECODED) == 0

    def test_lazy_view_does_not_keep_its_block_in_a_reference_cycle(self):
        """Dropping the last reference frees the block (and the payload
        bytes it holds) at once, without a cyclic-GC pass."""
        import gc
        import weakref

        codec = JsonCodec()
        payload = ten_tx_block().to_payload(codec)
        alive = weakref.ref(codec)
        gc.collect()
        gc.disable()
        try:
            lazy = Block.from_payload(payload, codec)
            view = lazy.transactions
            assert view[0].tx_id == "tx-0" and lazy.number == 3
            del codec, lazy, view
            assert alive() is None
        finally:
            gc.enable()

    def test_interleaved_readers_share_one_object_per_index(self):
        """Several readers of one lazy block object -- history reads,
        indexing in either order, a full scan -- take turns on it.
        Whichever decodes first, every reader ends up with the same
        Transaction objects: a second copy would hide a mutation from
        verify_data_hash."""
        codec = JsonCodec()
        payload = ten_tx_block().to_payload(codec)
        for order in (list(range(10)), list(range(9, -1, -1)), [i * 3 % 10 for i in range(10)]):
            lazy = Block.from_payload(payload, codec)
            picked: dict[int, Transaction] = {}
            for turn, index in enumerate(order):
                # A history read of the next transaction, then an index
                # read of this one, then (half way) a full scan.
                following = order[(turn + 1) % len(order)]
                assert lazy.history_write(following, 0, f"k{following}")[0] == following
                picked[index] = lazy.transactions[index]
                if turn == len(order) // 2:
                    scanned = list(lazy.transactions)
            final = list(lazy.transactions)
            assert [id(picked[i]) for i in range(10)] == [id(tx) for tx in final]
            assert [id(tx) for tx in scanned] == [id(tx) for tx in final]
            assert [tx.rw_set.writes[f"k{i}"].value for i, tx in enumerate(final)] == list(range(10))


class TestMalformedFrames:
    """Anything but a well-formed frame is a CodecError -- never an
    IndexError or struct.error leaking out of the parser."""

    @pytest.fixture
    def payload(self) -> bytes:
        return ten_tx_block().to_payload(JsonCodec())

    @staticmethod
    def frame(
        writes: list[int], ends: list[int], body: bytes, tx_count: int | None = None
    ) -> bytes:
        table = bytearray((FRAME_MAGIC,))
        write_uvarint(len(writes) if tx_count is None else tx_count, table)
        for count in writes:
            write_uvarint(count, table)
        return bytes(table) + struct.pack(f"<{len(ends)}I", *ends) + body

    def test_wrong_magic(self, payload):
        with pytest.raises(CodecError, match="not a framed block payload"):
            Block.from_payload(b"\xf3" + payload[1:], JsonCodec())
        with pytest.raises(CodecError, match="not a framed block payload"):
            Block.from_payload(b"", JsonCodec())

    @pytest.mark.parametrize("codec", CODECS, ids=codec_ids)
    def test_pre_frame_whole_block_payload_is_named(self, codec):
        """What PR <= 11 wrote: one codec value for the whole block."""
        old = codec.encode(ten_tx_block().to_dict())
        with pytest.raises(CodecError, match="written before the framed format"):
            Block.from_payload(old, codec)

    @pytest.mark.parametrize("codec", CODECS, ids=codec_ids)
    def test_per_transaction_frame_is_named(self, codec):
        """The frame before the current one: one segment per transaction, varint
        lengths.  Named, never parsed by guesswork."""
        old = per_transaction_frame(ten_tx_block(), codec)
        assert old[0] == 0xF1
        with pytest.raises(CodecError, match=r"per-transaction frame \(0xF1"):
            Block.from_payload(old, codec)

    def test_truncated_table(self, payload):
        for cut in (1, 2, 5, 12, 40):
            with pytest.raises(CodecError):
                Block.from_payload(payload[:cut], JsonCodec())

    def test_one_two_and_three_byte_lengths_in_one_table(self):
        """Write counts < 128, >= 128 and >= 16,384 share a table of
        one-, two- and three-byte varints; the frame validates whole, and
        cut anywhere in the table it is a CodecError."""
        txs = [
            make_tx("none", key="k"),
            make_tx("two", key="k"),
            make_tx("three", key="k"),
        ]
        del txs[0].rw_set.writes["k"]
        for tx, count in zip(txs[1:], (200, 16_384)):
            for index in range(count):
                tx.rw_set.add_write(f"w{index:05d}", index)
        block = make_block(txs=txs)
        payload = block.to_payload(JsonCodec())
        counts_end = 1 + 1 + 1 + 2 + 3  # magic, tx count, then the three write counts
        assert payload[2:counts_end] == b"\x00\xc9\x01\x81\x80\x01"  # 0, 201, 16,385
        segments = 1 + 2 * 3 + 0 + 201 + 16_385
        table_end = counts_end + 4 * segments
        assert payload[table_end:table_end + 3] == b'[{"'
        lazy = Block.from_payload(payload, JsonCodec())
        assert len(lazy.transactions) == 3
        assert lazy.history_write(2, 16_384, "w16383") == (16_383, False, 5, "three", True)
        assert Block.from_payload(payload, JsonCodec()) == block
        for cut in [*range(counts_end + 8), *range(counts_end + 8, table_end, 997)]:
            with pytest.raises(CodecError):
                Block.from_payload(payload[:cut], JsonCodec())

    def test_over_long_length_varint(self):
        bad = bytes((FRAME_MAGIC, 1)) + b"\x80" * 19 + b"\x01" + b"[{}]"
        with pytest.raises(CodecError, match="varint too long"):
            Block.from_payload(bad, JsonCodec())

    def test_zero_segments(self):
        """Every frame has its header segment: an empty list is no block."""
        with pytest.raises(CodecError, match="1-segment table needs"):
            Block.from_payload(bytes((FRAME_MAGIC, 0)) + b"[]", JsonCodec())
        header_only = self.frame([], [2], b"[{}]")
        assert len(Block.from_payload(header_only, JsonCodec()).transactions) == 0

    def test_table_runs_past_the_end(self, payload):
        with pytest.raises(CodecError, match="segments need"):
            Block.from_payload(payload[:-1], JsonCodec())
        with pytest.raises(CodecError, match="segments need"):
            Block.from_payload(self.frame([0], [2, 4, 2**32 - 1], b"[{},[],[]]"), JsonCodec())
        with pytest.raises(CodecError, match="table needs"):
            Block.from_payload(self.frame([0], [2, 4, 6], b"[{},[],[]]", tx_count=9), JsonCodec())
        with pytest.raises(CodecError):
            Block.from_payload(
                self.frame([0], [2, 4, 6], b"[{},[],[]]", tx_count=2**50), JsonCodec()
            )

    def test_table_stops_short_of_the_end(self, payload):
        with pytest.raises(CodecError, match="segments need"):
            Block.from_payload(payload + b" ", JsonCodec())
        with pytest.raises(CodecError, match="segments need"):
            Block.from_payload(self.frame([0], [2, 4, 5], b"[{},[],[]]"), JsonCodec())

    def test_frame_written_by_the_other_codec(self):
        """The golden block as the removed ``binary`` codec stored it: a
        chain written under it is refused, never misread."""
        with pytest.raises(CodecError, match="8 segments need 333 bytes, payload has 326"):
            Block.from_payload(BINARY_GOLDEN_PAYLOAD, JsonCodec())

    def test_well_framed_garbage_fails_as_codec_error_when_decoded(self):
        lazy = Block.from_payload(self.frame([0], [2, 5, 7], b"[{},nul,[]]"), JsonCodec())
        assert len(lazy.transactions) == 1
        with pytest.raises(CodecError):
            lazy.transactions[0]
        with pytest.raises(CodecError):
            list(lazy.transactions)

    # -- the table is read where it is used: one end at open, two per segment --

    @staticmethod
    def with_ends(payload: bytes, changes: dict[int, int]) -> bytes:
        """``payload`` with some cumulative segment ends replaced (a table
        whose transaction count and write counts are one byte each)."""
        table = bytearray(payload)
        start = 2 + payload[1]
        for index, end in changes.items():
            struct.pack_into("<I", table, start + 4 * index, end)
        return bytes(table)

    @staticmethod
    def ends(payload: bytes) -> list[int]:
        start = 2 + payload[1]
        count = 1 + 2 * payload[1] + sum(payload[2:start])
        return list(struct.unpack_from(f"<{count}I", payload, start))

    @pytest.mark.parametrize("codec", CODECS, ids=codec_ids)
    @pytest.mark.parametrize(
        "bad",
        ["past-the-last", "pair-swapped", "one-short-of-its-predecessor"],
    )
    def test_a_bad_interior_end_fails_the_reads_that_use_it(self, codec, bad):
        """Segments 4-6 are tx 1's head, body and write, 7 tx 2's head.
        ``ends[6]`` bounds tx 1's write and starts tx 2: every read using
        it fails, every read that does not is right, and the open -- which
        reads only the last end -- and a whole-block read succeed."""
        block = ten_tx_block()
        payload = block.to_payload(codec)
        ends = self.ends(payload)
        changes = {
            "past-the-last": {6: ends[-1] + 100},
            "pair-swapped": {5: ends[6], 6: ends[5]},
            "one-short-of-its-predecessor": {6: ends[5] - 1},
        }[bad]
        broken = self.with_ends(payload, changes)
        # Each read on a fresh block, so none is answered from another's memo.
        for read in (
            lambda lazy: lazy.history_write(1, 0, "k1"),
            lambda lazy: lazy.history_write(2, 0, "k2"),
            lambda lazy: lazy.transactions[1],
            lambda lazy: lazy.transactions[2],
        ):
            with pytest.raises((CodecError, LedgerError)):
                read(Block.from_payload(broken, codec))
        lazy = Block.from_payload(broken, codec)
        assert lazy.history_write(3, 0, "k3") == (3, False, 5, "tx-3", True)
        assert lazy.transactions[0] == block.transactions[0]
        assert lazy.transactions[9] == block.transactions[9]
        assert lazy.header == block.header
        assert Block.from_payload(broken, codec) == block

    @pytest.mark.parametrize("codec", CODECS, ids=codec_ids)
    def test_a_zero_transaction_block_reads_its_one_end(self, codec):
        block = make_block(number=9, txs=[])
        payload = block.to_payload(codec)
        assert self.ends(payload) == [len(codec.encode(block.header.to_dict()))]
        lazy = Block.from_payload(payload, codec)
        assert len(lazy.transactions) == 0
        assert lazy.header == block.header and lazy.number == 9
        assert Block.from_payload(payload, codec) == block
        for end in (0, self.ends(payload)[0] - 1, self.ends(payload)[0] + 1):
            with pytest.raises(CodecError, match="segments need"):
                Block.from_payload(self.with_ends(payload, {0: end}), codec)

    @pytest.mark.parametrize("codec", CODECS, ids=codec_ids)
    def test_a_segment_decoding_to_another_shape_is_a_codec_error(self, codec):
        """A write cut to its last byte, and segments that decode cleanly
        to values of the wrong shape: neither a history read nor a
        transaction built from such segments may leak a ``TypeError``."""
        block = make_block(txs=[make_tx("tx-w", key="a", value=7)])
        payload = block.to_payload(codec)
        ends = self.ends(payload)  # header, head, body, write "a"
        broken = self.with_ends(payload, {2: ends[3] - 1})
        with pytest.raises(CodecError):
            Block.from_payload(broken, codec).history_write(0, 0, "a")
        garbage = codec.list_affixes()
        body = ["cc", "alice", ["k"], b"", "VALID", "", None]  # a read that is no mapping
        for values in (
            [block.header.to_dict(), ["tx-w", 5], 3, False],
            [block.header.to_dict(), ["tx-w", 5], body, ["a", 7, False]],
        ):
            segments = [codec.encode(value) for value in values]
            framed = self.frame(
                [1], list(accumulate(map(len, segments))),
                garbage[0] + garbage[1].join(segments) + garbage[2],
            )
            reads = [lambda lazy: lazy.transactions[0], lambda lazy: list(lazy.transactions),
                     Block.history_keys]
            if values[3] is False:  # no write segment to read
                reads.append(lambda lazy: lazy.history_write(0, 0, "a"))
            for read in reads:
                with pytest.raises(CodecError, match="not a segment of its shape"):
                    read(Block.from_payload(framed, codec))



def test_first_undecodable_names_the_first_segment_that_does_not_decode(monkeypatch):
    """``repro doctor``'s locator decodes a framed block one segment at a
    time and names the first that raises: its transaction and, for a
    write, the write's key."""
    from repro.common.codec import BYTES_TAG
    from repro.fabric import block as block_module

    monkeypatch.setattr(block_module, "_holds_bytes_tag", lambda value: False)
    codec = JsonCodec()
    tag = {BYTES_TAG: 5}
    good = make_tx("tx-0", key="a")
    in_write = make_tx("tx-1", key="b", value=tag)
    in_body = make_tx("tx-2", key="c")
    in_body.event_name, in_body.event_payload = "e", tag

    def locate(*txs):
        payload = make_block(txs=list(txs)).to_payload(codec)
        return Block.from_payload(payload, codec).first_undecodable()

    assert locate(good) is None
    assert locate(good, in_write) == (1, "b")
    assert locate(good, in_body, in_write) == (1, None)
    assert make_block().first_undecodable() is None  # nothing framed to walk


class TestHistoryKeys:
    """``Block.history_keys`` -- what the history index is built from --
    read from a frame equals the eager block's, and fails on a malformed
    frame exactly where building the block's transactions does."""

    @pytest.mark.parametrize("codec", CODECS, ids=codec_ids)
    @given(block=blocks(max_txs=12, max_writes=5))
    def test_the_walk_of_a_frame_is_the_eager_blocks(self, codec, block):
        self.assert_walk_is_build(codec, block)

    @pytest.mark.parametrize("codec", CODECS, ids=codec_ids)
    @given(data=st.data())
    def test_the_walk_reads_every_transaction_shape(self, codec, data):
        """One-write and multi-write transactions, each with and without
        reads, in any mix: the walk reads a one-write transaction's key
        and a transaction without reads its own way."""
        txs = []
        for index in range(data.draw(st.integers(1, 8), label="transactions")):
            tx = data.draw(transactions(index, max_writes=0), label="body")
            tx.rw_set.reads = tx.rw_set.reads if data.draw(st.booleans(), label="reads") else []
            written = data.draw(st.sampled_from([1, 2, 4]), label="writes")
            for key in data.draw(
                st.lists(st.sampled_from("uvwxyz"), min_size=written, max_size=written, unique=True)
            ):
                tx.rw_set.add_write(key, data.draw(values))
            txs.append(tx)
        self.assert_walk_is_build(codec, make_block(number=data.draw(st.integers(0, 99)), txs=txs))

    @staticmethod
    def assert_walk_is_build(codec, block):
        expected = (block.number, [
            (tx_num, sorted(tx.rw_set.writes))
            for tx_num, tx in enumerate(block.transactions)
            if tx.validation_code == VALID
        ])
        assert block.history_keys() == expected
        payload = block.to_payload(codec)
        metrics = MetricsRegistry()
        lazy = Block.from_payload(payload, codec, metrics)
        assert lazy.history_keys() == expected
        assert metrics.snapshot().counter(metric_names.TXS_DECODED) == 0
        # A transaction handed out first is read instead of its segments.
        partly = Block.from_payload(payload, codec)
        if block.transactions:
            assert partly.transactions[-1].tx_id == block.transactions[-1].tx_id
        assert partly.history_keys() == expected
        assert partly.number == block.number

    @pytest.mark.parametrize("codec", CODECS, ids=codec_ids)
    @given(data=st.data())
    def test_a_misshapen_segment_fails_the_walk_where_it_fails_the_build(self, codec, data):
        """One segment of the golden block's frame replaced -- by another
        value, by its own value with one element at some depth swapped (a
        read inside a body, say), or by two values.  The walk raises
        :class:`CodecError` exactly when decoding the whole block does,
        and nothing else."""

        def swapped(value):
            if not isinstance(value, list) or not value or not data.draw(st.integers(0, 3)):
                return data.draw(junk, label="swapped in")
            value = list(value)
            at = data.draw(st.integers(0, len(value) - 1), label="at")
            value[at] = swapped(value[at])
            return value

        payload = golden_block().to_payload(codec)
        start = 2 + payload[1]
        writes = list(payload[2:start])
        count = 1 + 2 * len(writes) + sum(writes)
        decoded = codec.decode(payload[start + 4 * count :])
        segments = [codec.encode(value) for value in decoded]
        index = data.draw(st.integers(0, count - 1), label="segment")
        prefix, separator, suffix = codec.list_affixes()
        if data.draw(st.booleans(), label="two values"):
            segments[index] += separator + codec.encode(data.draw(junk, label="extra"))
        else:
            segments[index] = codec.encode(swapped(decoded[index]))
        framed = TestMalformedFrames.frame(
            writes, list(accumulate(map(len, segments))),
            prefix + separator.join(segments) + suffix,
        )

        def fails(read) -> bool:
            try:
                read(Block.from_payload(framed, codec))
            except CodecError:
                return True
            return False

        built = fails(lambda lazy: (list(lazy.transactions), lazy.header))
        assert fails(Block.history_keys) == built

    @staticmethod
    def replaced(block: Block, index: int, value) -> bytes:
        """``block``'s frame with segment ``index`` replaced by ``value``."""
        codec = JsonCodec()
        payload = block.to_payload(codec)
        start = 2 + payload[1]
        writes = list(payload[2:start])
        count = 1 + 2 * len(writes) + sum(writes)
        segments = [codec.encode(value) for value in codec.decode(payload[start + 4 * count :])]
        segments[index] = codec.encode(value)
        return TestMalformedFrames.frame(
            writes, list(accumulate(map(len, segments))), b"[" + b",".join(segments) + b"]"
        )

    @pytest.mark.parametrize(
        "segment, value, fails",
        [
            # A one-write transaction's write (segment 3: header, head, body).
            ("write", ["u", 1], True),
            ("write", ["u", 1, False, 2], True),
            ("write", 5, True),
            ("write", None, True),
            ("write", [["u"], 1, False], True),
            ("write", [{"u": 1}, 1, False], True),
            ("write", "abc", False),  # three characters unpack as three values
            ("write", ["u", 1, True], False),
            # Its body: the reads, then a body of the wrong length.
            ("body", ["cc", "alice", None, "", "VALID", "", None], True),
            ("body", ["cc", "alice", 0, "", "VALID", "", None], True),
            ("body", ["cc", "alice", [5], "", "VALID", "", None], True),
            ("body", ["cc", "alice", [{"v": [1, 2]}], "", "VALID", "", None], True),
            ("body", ["cc", "alice", "", "", "VALID", "", None], False),
            ("body", ["cc", "alice", {}, "", "VALID", "", None], False),
            ("body", ["cc", "alice", [{"k": "a"}], "", "VALID", "", None], False),
            ("body", ["cc", "alice", [], "", "VALID", ""], True),
            # Its head.
            ("head", ["tx-0"], True),
            ("head", ["tx-0", 1, 2], True),
            ("head", 7, True),
        ],
    )
    def test_a_misshapen_single_write_fails_the_walk_where_it_fails_the_build(
        self, segment, value, fails
    ):
        """The walk reads a one-write, read-free transaction (the first)
        by index instead of unpacking a slice; each misshapen segment of
        it fails the walk exactly when it fails building the block."""
        one = RWSet()
        one.add_write("u", 1)
        many = RWSet()
        many.add_read("a", (1, 2))
        many.add_write("v", 2)
        many.add_write("w", 3)
        block = make_block(txs=[
            Transaction(tx_id="tx-0", chaincode="cc", creator="alice", timestamp=1,
                        rw_set=one, validation_code=VALID),
            Transaction(tx_id="tx-1", chaincode="cc", creator="bob", timestamp=2,
                        rw_set=many, validation_code=VALID),
        ])
        framed = self.replaced(block, {"head": 1, "body": 2, "write": 3}[segment], value)

        def outcome(read):
            try:
                return read(Block.from_payload(framed, JsonCodec()))
            except CodecError:
                return CodecError

        built = outcome(lambda lazy: (list(lazy.transactions), lazy.header))
        walked = outcome(Block.history_keys)
        assert (walked is CodecError) == (built is CodecError) == fails
        if not fails:
            assert walked == Block(built[1], built[0]).history_keys()


# --------------------------------------------------------------------------
# The stored format, pinned
# --------------------------------------------------------------------------


def golden_block() -> Block:
    """Two transactions: A writes three keys (a delete, a ``bytes`` value,
    a key holding ``\\x00`` and non-ASCII characters), B writes nothing
    and reads one key."""
    writes = RWSet()
    writes.add_write("shipment\x00ключ-7", {"temp": -3.5, "at": "北"})
    writes.add_write("blob", b"\x00\xff")
    writes.add_delete("gone")
    reads = RWSet()
    reads.add_read("blob", (6, 0))
    txs = [
        Transaction(tx_id="tx-a", chaincode="cc", creator="alice", timestamp=41,
                    rw_set=writes, signature=b"\x01\x02", validation_code="VALID",
                    event_name="moved", event_payload=[1, None]),
        Transaction(tx_id="tx-b", chaincode="cc", creator="bob", timestamp=42,
                    rw_set=reads, signature=b"", validation_code="MVCC_READ_CONFLICT"),
    ]
    return Block(BlockHeader(7, b"\x11" * 32, Block.compute_data_hash(txs)), txs)


#: ``golden_block()``'s data hash: a function of the signed transaction
#: bytes alone, so it did not move when the storage layout did.
GOLDEN_DATA_HASH = "6d4e54b28f3ffff52b8ec9adaf39c7d85ef6b8f5d0461dd22fe1f0905660581f"

#: ``golden_block().to_payload(codec)``: magic 0xF2, tx count 2, write
#: counts 3 and 0, eight u32 cumulative segment ends, then the segments
#: ``[header, head A, body A, "blob", "gone", "shipment\x00ключ-7", head B,
#: body B]`` as one codec-level list.  A format change shows up here as a
#: deliberate diff.
GOLDEN_PAYLOADS = {
    "json": bytes.fromhex(
        "f2020300ae000000b9000000fe00000027010000390100008701000092010000"
        "eb0100005b7b226e756d626572223a372c2270726576696f75735f6861736822"
        "3a7b225f5f726570726f5f62797465735f5f223a224552455245524552455245"
        "5245524552455245524552455245524552455245524552455245524552455245"
        "3d227d2c22646174615f68617368223a7b225f5f726570726f5f62797465735f"
        "5f223a2262553555736f382f2f2f55726a736d74727a6e483246373275505851"
        "526833534c2b48776b465a675742383d227d7d2c5b2274782d61222c34315d2c"
        "5b226363222c22616c696365222c5b5d2c7b225f5f726570726f5f6279746573"
        "5f5f223a224151493d227d2c2256414c4944222c226d6f766564222c5b312c6e"
        "756c6c5d5d2c5b22626c6f62222c7b225f5f726570726f5f62797465735f5f22"
        "3a224150383d227d2c66616c73655d2c5b22676f6e65222c6e756c6c2c747275"
        "655d2c5b22736869706d656e745c75303030305c75303433615c75303433625c"
        "75303434655c75303434372d37222c7b2274656d70223a2d332e352c22617422"
        "3a225c7535333137227d2c66616c73655d2c5b2274782d62222c34325d2c5b22"
        "6363222c22626f62222c5b7b226b223a22626c6f62222c2276223a5b362c305d"
        "7d5d2c7b225f5f726570726f5f62797465735f5f223a22227d2c224d5643435f"
        "524541445f434f4e464c494354222c22222c6e756c6c5d5d"
    ),
}


@pytest.mark.parametrize("codec", CODECS, ids=codec_ids)
class TestGoldenPayload:
    def test_the_payload_is_the_pinned_bytes(self, codec):
        block = golden_block()
        assert block.header.data_hash.hex() == GOLDEN_DATA_HASH
        assert block.to_payload(codec) == GOLDEN_PAYLOADS["json"]

    def test_the_pinned_bytes_read_back_as_the_block(self, codec):
        payload = GOLDEN_PAYLOADS["json"]
        lazy = Block.from_payload(payload, codec)
        assert lazy.history_write(0, 0, "blob") == (b"\x00\xff", False, 41, "tx-a", True)
        assert lazy.history_write(0, 1, "gone") == (None, True, 41, "tx-a", False)
        assert lazy.history_write(0, 2, "shipment\x00ключ-7") == (
            {"temp": -3.5, "at": "北"}, False, 41, "tx-a", False
        )
        assert len(lazy.transactions) == 2
        assert lazy == golden_block()
        lazy.verify_data_hash()
        assert lazy.header.data_hash.hex() == GOLDEN_DATA_HASH
        assert lazy.to_payload(codec) == payload
