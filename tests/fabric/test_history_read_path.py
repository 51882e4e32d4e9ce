"""GHFK's result path: entries built from two decoded segments.

``HistoryDB`` records ``(block, tx, write)`` and reads ``(value,
is_delete, timestamp, tx_id)`` for a history location straight from the
transaction's decoded head and that one write segment
(:meth:`Block.history_write`) instead of building the ``Transaction`` /
``RWSet`` / ``KVWrite`` graph.  These tests hold that path to the graph
path's answers: an oracle that *does* build the graph must agree field
for field, the lazy block's identity and tamper-evidence guarantees must
survive history reads, and a history location the block cannot honour is
a :class:`LedgerError`, not a stray ``KeyError``.
"""

from __future__ import annotations

import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import metrics as metric_names
from repro.common.codec import JsonCodec
from repro.common.errors import LedgerError
from repro.common.metrics import MetricsRegistry
from repro.fabric.block import (
    GENESIS_PREVIOUS_HASH,
    MVCC_READ_CONFLICT,
    VALID,
    Block,
    BlockHeader,
    RWSet,
    Transaction,
)
from repro.fabric.blockstore import BlockStore
from repro.fabric.historydb import HistoryDB, HistoryEntry

CODECS = [JsonCodec()]
CODEC_IDS = ["json"]

# -- random chains ------------------------------------------------------------

scalars = st.none() | st.booleans() | st.integers(-(2**40), 2**40) | st.text(max_size=8)
values = (
    scalars
    | st.binary(max_size=12)
    # Nested, with bytes inside.
    | st.dictionaries(
        st.text(max_size=4),
        scalars | st.binary(max_size=6) | st.lists(scalars, max_size=3),
        max_size=3,
    )
    # A value shaped like a serialized write, or like a transaction.
    | st.fixed_dictionaries({"k": st.text(max_size=4), "v": scalars, "d": st.booleans()})
    | st.fixed_dictionaries({"tx_id": st.text(max_size=4), "timestamp": st.integers(0, 9),
                             "rw_set": st.just({"writes": []})})
)
keys = st.sampled_from(["\x00", "S\x0001", "\x01idx\x00S1", "ключ", "鍵-7", "k", "v", "d"]) | st.text(
    min_size=1, max_size=6
)


@st.composite
def chains(draw) -> list[Block]:
    """A hash chain whose transactions write 1-23 keys of one shared
    pool each, so keys collect multi-entry histories."""
    pool = draw(st.lists(keys, min_size=1, max_size=23, unique=True))
    blocks: list[Block] = []
    previous = GENESIS_PREVIOUS_HASH
    for number in range(draw(st.integers(1, 3))):
        txs = []
        for index in range(draw(st.integers(1, 4))):
            rw_set = RWSet()
            rw_set.add_read(pool[0], draw(st.none() | st.just((number, index))))
            written = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=23, unique=True))
            for key in written:
                if draw(st.integers(0, 4)) == 0:
                    rw_set.add_delete(key)
                else:
                    rw_set.add_write(key, draw(values))
            txs.append(Transaction(
                tx_id=f"tx-{number}-{index}",
                chaincode="cc",
                creator="alice",
                timestamp=draw(st.integers(0, 10_000)),
                rw_set=rw_set,
                signature=draw(st.binary(max_size=6)),
                validation_code=draw(st.sampled_from([VALID, VALID, VALID, MVCC_READ_CONFLICT])),
            ))
        header = BlockHeader(number, previous, Block.compute_data_hash(txs))
        blocks.append(Block(header, txs))
        previous = header.hash()
    return blocks


def oracle_history(history: HistoryDB, store: BlockStore, key: str) -> list[HistoryEntry]:
    """What GHFK must return, through the full object graph."""
    entries = []
    for block_num, tx_num, write_num in history.locations_for_key(key):
        block = Block.from_dict(store.get_block(block_num).to_dict())
        tx = block.transactions[tx_num]
        write = tx.rw_set.writes[key]
        assert sorted(tx.rw_set.writes)[write_num] == key
        entries.append(HistoryEntry(
            key=key, value=write.value, is_delete=write.is_delete, timestamp=tx.timestamp,
            block_num=block_num, tx_num=tx_num, tx_id=tx.tx_id,
        ))
    return entries


def same_entry(got: HistoryEntry, want: HistoryEntry) -> bool:
    """Field for field, types included (``True == 1``, ``b"" != ""``)."""
    return got == want and all(
        type(mine) is type(theirs) for mine, theirs in zip(got, want)
    )


@pytest.mark.parametrize("codec", CODECS, ids=CODEC_IDS)
@settings(max_examples=60)
@given(chain=chains())
def test_every_entry_equals_the_object_graph_oracle(codec, chain):
    metrics = MetricsRegistry()
    with tempfile.TemporaryDirectory() as path:
        store = BlockStore(path, codec=codec, metrics=metrics)
        try:
            history = HistoryDB(metrics)
            for block in chain:
                store.add_block(block)
                history.index_block(block)
            written = {key for block in chain for tx in block.transactions
                       if tx.validation_code == VALID for key in tx.rw_set.writes}
            assert set(history.keys()) == written
            for key in sorted(written):
                want = oracle_history(history, store, key)
                assert want, key
                before = metrics.snapshot().counter(metric_names.TXS_DECODED)
                got = list(history.get_history_for_key(key, store))
                assert len(got) == len(want)
                for mine, theirs in zip(got, want):
                    assert same_entry(mine, theirs), (mine, theirs)
                # One transaction head decoded per result, never the block.
                assert metrics.snapshot().counter(metric_names.TXS_DECODED) - before == len(want)
        finally:
            store.close()


# -- the lazy block's guarantees survive history reads --------------------------


def wide_tx(index: int, timestamp: int) -> Transaction:
    rw_set = RWSet()
    rw_set.add_read("S1", (0, 0))
    for key in ("S1", "S2", "C1", f"only-{index}"):
        rw_set.add_write(key, {"tx": index, "key": key})
    tx = Transaction(tx_id=f"tx-{index}", chaincode="cc", creator="alice",
                     timestamp=timestamp, rw_set=rw_set, signature=b"\x01")
    tx.validation_code = VALID
    return tx


def ten_tx_block() -> Block:
    txs = [wide_tx(index, 100 + index) for index in range(10)]
    return Block(BlockHeader(0, GENESIS_PREVIOUS_HASH, Block.compute_data_hash(txs)), txs)


class OneBlock:
    """Hands every reader the one lazy ``Block`` that ``store.get_block(0)``
    returned, so GHFK iterators (``block.history_write``) and
    ``block.transactions[i]`` readers share its decoded segments."""

    def __init__(self, store: BlockStore) -> None:
        self.block = store.get_block(0)

    def get_block(self, number: int) -> Block:
        assert number == 0, number
        return self.block


@pytest.fixture(params=CODECS, ids=CODEC_IDS)
def shared(request, tmp_path):
    """``(store, history, metrics)``: one stored ten-transaction block,
    read through a :class:`OneBlock` so every reader gets the same lazy
    ``Block`` object."""
    metrics = MetricsRegistry()
    store = BlockStore(tmp_path, codec=request.param, metrics=metrics)
    history = HistoryDB(metrics)
    block = ten_tx_block()
    store.add_block(block)
    history.index_block(block)
    yield OneBlock(store), history, metrics
    store.close()


def test_history_reads_share_the_segments_the_view_decodes(shared):
    store, history, metrics = shared
    entries = list(history.get_history_for_key("S1", store))
    assert [entry.tx_num for entry in entries] == list(range(10))
    assert metrics.snapshot().counter(metric_names.TXS_DECODED) == 10
    block = store.get_block(0)
    # Another key of the same transactions, then the transactions
    # themselves: nothing is decoded twice.
    assert [entry.value for entry in history.get_history_for_key("C1", store)] == [
        {"tx": index, "key": "C1"} for index in range(10)
    ]
    first = block.transactions[3]
    assert first is block.transactions[3] is block.transactions[-7]
    assert first.rw_set.writes["S1"].value == entries[3].value
    assert metrics.snapshot().counter(metric_names.TXS_DECODED) == 10
    # ... and across the switch to the fully decoded list, after which
    # history reads the list.
    assert list(block.transactions)[3] is first
    assert metrics.snapshot().counter(metric_names.TXS_DECODED) == 10
    assert list(history.get_history_for_key("S1", store)) == entries
    block.verify_data_hash()


@pytest.mark.parametrize("scan_first", [False, True], ids=["lazy", "scanned"])
def test_a_mutation_through_the_view_is_what_history_reports(shared, scan_first):
    store, history, _ = shared
    block = store.get_block(0)
    if scan_first:
        block.verify_data_hash()
    else:  # every segment is memoised before a transaction is handed out
        assert len(list(history.get_history_for_key("S2", store))) == 10
    block.transactions[4].rw_set.add_write("S2", "tampered")
    block.transactions[5].timestamp = -1
    got = list(history.get_history_for_key("S2", store))
    assert got[4].value == "tampered" and got[5].timestamp == -1
    assert got[3].value == {"tx": 3, "key": "S2"}
    with pytest.raises(LedgerError, match="data hash mismatch"):
        store.get_block(0).verify_data_hash()


def test_interleaved_history_and_view_readers_of_one_cached_block(tmp_path):
    """GHFK iterators and ``transactions[i]`` readers (and a scan) take
    turns on one lazy block, the one ``store.get_block(0)`` returned: each
    iterator advances one result per turn between the view's reads, which
    go forward in one round and backward in the other.  Every reader sees
    the same ``Transaction`` per index and every history the same
    entries."""
    reference = ten_tx_block()
    want = {
        key: [(index, {"tx": index, "key": key}, 100 + index, f"tx-{index}") for index in range(10)]
        for key in ("S1", "S2", "C1")
    }
    for round_number, order in enumerate((range(10), range(9, -1, -1))):
        stored = BlockStore(tmp_path / f"round-{round_number}")
        history = HistoryDB()
        stored.add_block(reference)
        history.index_block(reference)
        store = OneBlock(stored)
        iterators = {key: history.get_history_for_key(key, store) for key in want}
        got: dict[str, list] = {key: [] for key in want}
        block = store.get_block(0)
        picked = {}
        for turn, index in enumerate(order):
            for key, iterator in iterators.items():
                entry = next(iterator)
                got[key].append((entry.tx_num, entry.value, entry.timestamp, entry.tx_id))
            picked[index] = block.transactions[index]
            if turn == 5:
                scanned = list(block.transactions)
        assert got == want
        final = list(block.transactions)
        assert [id(picked[index]) for index in range(10)] == [id(tx) for tx in final]
        assert [id(tx) for tx in scanned] == [id(tx) for tx in final]
        block.verify_data_hash()
        stored.close()


def test_a_value_history_handed_out_is_the_one_the_data_hash_covers(shared):
    """Values are returned by reference; scribbling on one is tampering
    with the block it came from, whichever way the block is decoded later."""
    store, history, _ = shared
    entries = list(history.get_history_for_key("C1", store))
    block = store.get_block(0)
    entries[6].value["key"] = "tampered"
    assert block.transactions[6].rw_set.writes["C1"].value is entries[6].value
    entries[8].value["key"] = "tampered"  # never indexed: decoded by the scan
    with pytest.raises(LedgerError, match="data hash mismatch"):
        block.verify_data_hash()
    assert block.transactions[8].rw_set.writes["C1"].value is entries[8].value


# -- counts are exact while an iterator is held open ----------------------------


@pytest.mark.parametrize("codec", CODECS, ids=CODEC_IDS)
def test_counts_are_exact_when_an_iterator_is_abandoned(codec, tmp_path):
    """M1 takes one result and drops the iterator; TQF stops past its
    window.  Every result taken is counted by the time ``next`` returns
    it -- not when the generator is closed or collected -- and nothing
    beyond it is."""
    metrics = MetricsRegistry()
    store = BlockStore(tmp_path, codec=codec, metrics=metrics)
    history = HistoryDB(metrics)
    previous, timestamp = GENESIS_PREVIOUS_HASH, 0
    for number, writers in enumerate((2, 3, 3, 2)):  # 10 results over 4 blocks
        txs = []
        for index in range(writers):
            timestamp += 1
            tx = wide_tx(index, timestamp)
            tx.rw_set.add_write("k", timestamp)
            txs.append(tx)
        block = Block(BlockHeader(number, previous, Block.compute_data_hash(txs)), txs)
        store.add_block(block)
        history.index_block(block)
        previous = block.header.hash()

    def counts() -> tuple[int, int, int, int]:
        return tuple(metrics.snapshot().counter(name) for name in (
            metric_names.GHFK_CALLS, metric_names.GHFK_RESULTS,
            metric_names.TXS_DECODED, metric_names.BLOCKS_DESERIALIZED,
        ))

    try:
        iterator = history.get_history_for_key("k", store)
        taken = [next(iterator) for _ in range(3)]
        assert [entry.value for entry in taken] == [1, 2, 3]
        # Kept alive and unclosed: the third result is in block 1.
        assert counts() == (1, 3, 3, 2)
        rest = []
        with pytest.raises(StopIteration):
            while True:
                rest.append(next(iterator))
        assert [entry.value for entry in rest] == list(range(4, 11))
        assert counts() == (1, 10, 10, 4)
        del iterator
        assert counts() == (1, 10, 10, 4)
    finally:
        store.close()


# -- a history location the block cannot honour ---------------------------------


@pytest.mark.parametrize("scanned", [False, True], ids=["lazy", "scanned"])
@pytest.mark.parametrize(
    "location, names",
    [
        ((0, 3, 3), "block 0 tx 3 write 3"),  # a transaction that does not write the key
        ((0, 10, 0), "block 0 tx 10"),  # past the block's segment table
        ((0, -1, 3), "block 0 tx -1"),  # never the last transaction, never the header
        ((0, 2, 0), "block 0 tx 2 write 0"),  # the right transaction, another of its writes
        ((0, 2, -1), "block 0 tx 2 write -1"),  # never its last write
        ((0, 2, 4), "block 0 tx 2 write 4"),  # past its writes: the next transaction's head
    ],
    ids=["another-tx", "past-the-table", "negative", "wrong-write", "negative-write",
         "past-the-writes"],
)
def test_a_bad_history_location_is_a_ledger_error(shared, scanned, location, names):
    store, history, metrics = shared
    if scanned:
        list(store.get_block(0).transactions)
    history._locations["only-2"] = [(0, 2, 3), location]
    results = metrics.snapshot().counter(metric_names.GHFK_RESULTS)
    iterator = history.get_history_for_key("only-2", store)
    assert next(iterator).value == {"tx": 2, "key": "only-2"}
    with pytest.raises(LedgerError, match=names) as raised:
        next(iterator)
    assert "'only-2'" in str(raised.value)
    # Only the entry that exists counted as a result.
    assert metrics.snapshot().counter(metric_names.GHFK_RESULTS) == results + 1
