"""``HistoryDB.oldest_entries``: the first GHFK result of many keys in one call.

Model M1 reads one bundle per planned ``(k, θ)`` and used to build one
GHFK iterator per interval for it, abandoning each after its first
result.  :meth:`HistoryDB.oldest_entries` answers the same question in
one call.  These tests hold it to the iterators: the same entries, and
the same counter deltas -- GHFK calls and results, transactions decoded,
blocks and bytes read -- on both state-db backends, for keys with no
location, for bundles whose deletion marker sits in another block, for
blocks whose transactions a reader materialized first, and up to and
including a read that fails.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import metrics as metric_names
from repro.common.config import BlockCuttingConfig, FabricConfig, StateDbConfig
from repro.common.errors import BlockFileError, LedgerError
from repro.common.metrics import MetricsRegistry
from repro.fabric.block import GENESIS_PREVIOUS_HASH, Block, BlockHeader
from repro.fabric.blockstore import BlockStore
from repro.fabric.historydb import HistoryDB
from repro.fabric.network import FabricNetwork
from repro.temporal.chaincodes import M1IndexChaincode, SupplyChainChaincode
from repro.temporal.engine import TemporalQueryEngine
from repro.temporal.intervals import TimeInterval
from repro.temporal.keys import interval_key_suffix, is_interval_key
from repro.temporal.m1 import M1Indexer, M1QueryEngine
from repro.workload.ingest import ingest
from tests.fabric.test_history_read_path import wide_tx
from tests.helpers import small_workload

COUNTERS = (
    metric_names.GHFK_CALLS,
    metric_names.GHFK_RESULTS,
    metric_names.TXS_DECODED,
    metric_names.BLOCKS_DESERIALIZED,
    metric_names.BLOCK_BYTES_READ,
)

U = 100


def counts(metrics: MetricsRegistry) -> tuple:
    snapshot = metrics.snapshot()
    return tuple(snapshot.counter(name) for name in COUNTERS)


def delta(metrics: MetricsRegistry, read) -> tuple:
    """``(read(), counter deltas)``, or ``(the error, deltas)`` when it raises."""
    before = counts(metrics)
    try:
        result = read()
    except Exception as exc:  # compared, never swallowed: see the callers
        result = exc
    return result, tuple(a - b for a, b in zip(counts(metrics), before))


def first_results(history: HistoryDB, keys, store):
    """What M1 did before: one GHFK per key, abandoned after one result."""
    return [next(iter(history.get_history_for_key(key, store)), None) for key in keys]


class Materializing:
    """A block store whose every block has had its transactions built
    through ``.transactions`` before a history read sees it."""

    def __init__(self, store: BlockStore) -> None:
        self._store = store

    def get_block(self, number: int) -> Block:
        block = self._store.get_block(number)
        list(block.transactions)
        return block


@pytest.fixture(scope="module", params=["memory", "lsm"])
def indexed(request, tmp_path_factory):
    """A plain ledger on ``request.param`` with a full M1 index at ``u =
    100``, cut at three transactions a block so some bundles' deletion
    markers land in the next block."""
    config = FabricConfig(
        block_cutting=BlockCuttingConfig(max_message_count=3),
        state_db=StateDbConfig(backend=request.param, memtable_limit=16),
    )
    network = FabricNetwork(tmp_path_factory.mktemp(request.param), config=config)
    network.install(SupplyChainChaincode())
    network.install(M1IndexChaincode())
    workload = small_workload()
    ingest(network.gateway("ingestor"), workload.events, SupplyChainChaincode.name)
    M1Indexer(
        ledger=network.ledger, gateway=network.gateway("indexer"),
        key_prefixes=["S", "C"], metrics=network.metrics,
    ).run(0, workload.config.t_max, U)
    yield network
    network.close()


def key_pool(network: FabricNetwork) -> list:
    """Bundle keys, base keys, every interval key with no bundle, and a
    key the ledger never saw."""
    written = network.ledger.history_db.keys()
    bases = sorted(key for key in written if key[0] in "SC" and not is_interval_key(key))
    spelled = [
        base + interval_key_suffix(start, start + U)
        for base in bases for start in range(0, 1_000, U)
    ]
    return sorted(set(written) | set(spelled)) + ["never-written"]


@settings(max_examples=40)
@given(data=st.data())
def test_oldest_entries_are_the_first_results_of_the_iterators(indexed, data):
    pool = key_pool(indexed)
    keys = data.draw(st.lists(st.sampled_from(pool), max_size=30))
    history, metrics = indexed.ledger.history_db, indexed.metrics
    materialize = data.draw(st.booleans())
    store = Materializing(indexed.ledger.block_store) if materialize else indexed.ledger.block_store
    got, got_counts = delta(metrics, lambda: history.oldest_entries(keys, store))
    want, want_counts = delta(metrics, lambda: first_results(history, keys, store))
    assert got == want
    assert got_counts == want_counts
    assert got_counts[0] == len(keys)


def test_the_ledger_exposes_the_read(indexed):
    keys = key_pool(indexed)[:40]
    metrics = indexed.metrics
    got, got_counts = delta(metrics, lambda: indexed.ledger.oldest_history_entries(keys))
    want, want_counts = delta(
        metrics, lambda: [next(iter(indexed.ledger.get_history_for_key(k)), None) for k in keys]
    )
    assert got == want and got_counts == want_counts
    assert None in got and any(entry is not None for entry in got)


def test_keys_with_no_location_tick_a_call_and_read_nothing(indexed):
    history, metrics = indexed.ledger.history_db, indexed.metrics
    keys = ["never-written", "S1" + interval_key_suffix(10_000, 10_000 + U), "never-written"]
    got, got_counts = delta(
        metrics, lambda: history.oldest_entries(keys, indexed.ledger.block_store)
    )
    assert got == [None, None, None]
    assert got_counts == (3, 0, 0, 0, 0)
    assert delta(metrics, lambda: history.oldest_entries([], indexed.ledger.block_store)) == (
        [], (0, 0, 0, 0, 0)
    )


def test_a_bundle_whose_deletion_marker_is_in_another_block_reads_one_block(indexed):
    history = indexed.ledger.history_db
    split = [
        key for key in history.keys()
        if is_interval_key(key)
        and len({block for block, _, _ in history.locations_for_key(key)}) == 2
    ]
    assert split, "no bundle's deletion marker landed in the next block"
    for key in split[:5]:
        (entry,), got_counts = delta(
            indexed.metrics, lambda: history.oldest_entries([key], indexed.ledger.block_store)
        )
        assert not entry.is_delete and entry.value
        assert entry.block_num == history.locations_for_key(key)[0][0]
        assert got_counts[:2] == (1, 1) and got_counts[3] == 1


# -- failures count what the iterators counted, up to the one that raised -------


@pytest.fixture
def ten_tx_store(tmp_path):
    """``(store, history, metrics)`` over one stored ten-transaction block
    whose transactions each write ``S1``, ``S2``, ``C1`` and
    ``only-<index>``."""
    metrics = MetricsRegistry()
    store = BlockStore(tmp_path, metrics=metrics)
    history = HistoryDB(metrics)
    txs = [wide_tx(index, 100 + index) for index in range(10)]
    block = Block(BlockHeader(0, GENESIS_PREVIOUS_HASH, Block.compute_data_hash(txs)), txs)
    store.add_block(block)
    history.index_block(block)
    yield store, history, metrics
    store.close()


@pytest.mark.parametrize("materialize", [False, True], ids=["lazy", "materialized"])
def test_a_location_naming_no_write_to_its_key_is_the_same_ledger_error(
    ten_tx_store, materialize
):
    store, history, metrics = ten_tx_store
    reader = Materializing(store) if materialize else store
    history._locations["only-2"] = [(0, 3, 3)]  # tx 3 does not write only-2
    keys = ["S1", "nothing", "only-2", "S2"]
    got, got_counts = delta(metrics, lambda: history.oldest_entries(keys, reader))
    want, want_counts = delta(metrics, lambda: first_results(history, keys, reader))
    assert isinstance(got, LedgerError) and type(got) is type(want)
    assert str(got) == str(want) == (
        "history index names block 0 tx 3 write 3 for key 'only-2', but that "
        "is not a write to the key"
    )
    # S1, the empty key and the failing one were called; S2 never was.
    assert got_counts == want_counts
    assert got_counts[:2] == (3, 1)


def test_a_failed_block_read_counts_the_call_that_raised(ten_tx_store):
    store, history, metrics = ten_tx_store
    history._locations["gone"] = [(7, 0, 0)]  # past the chain's head
    keys = ["S1", "gone", "S2"]
    got, got_counts = delta(metrics, lambda: history.oldest_entries(keys, store))
    want, want_counts = delta(metrics, lambda: first_results(history, keys, store))
    assert type(got) is type(want) and str(got) == str(want)
    assert got_counts == want_counts
    assert got_counts[:2] == (2, 1)


def test_a_corrupt_bundle_block_fails_the_m1_join_naming_the_record(tmp_path):
    """M1 stops at the first bundle it cannot read with the block file's
    own error, whichever way the bundle was reached."""
    workload = small_workload()
    network = FabricNetwork(tmp_path / "plain", config=FabricConfig(
        block_cutting=BlockCuttingConfig(max_message_count=10)
    ))
    try:
        network.install(SupplyChainChaincode())
        network.install(M1IndexChaincode())
        ingest(network.gateway("ingestor"), workload.events, SupplyChainChaincode.name)
        M1Indexer(
            ledger=network.ledger, gateway=network.gateway("indexer"),
            key_prefixes=["S", "C"], metrics=network.metrics,
        ).run(0, workload.config.t_max, U)
        ledger = network.ledger
        engine = M1QueryEngine(ledger)
        window = TimeInterval(200, 600)
        first_key = engine.list_keys("S")[0]
        plan = engine.plan(window)
        bundle_blocks = [
            ledger.history_db.locations_for_key(first_key + planned.key_suffix)[0][0]
            for planned in plan.intervals
            if ledger.history_db.locations_for_key(first_key + planned.key_suffix)
        ]
        # The first bundle the join reads: the first shipment's first one.
        target = bundle_blocks[0]
        ledger.block_store.sync()
        files = ledger.block_store._files
        location = ledger.block_store._index.lookup(target)
        path = files._file_path(location.file_num)
        with open(path, "r+b") as handle:
            handle.seek(location.offset + location.length // 2 + 8)
            byte = handle.read(1)
            handle.seek(-1, 1)
            handle.write(bytes([byte[0] ^ 0x01]))
        query = TemporalQueryEngine(ledger, network.metrics)
        with pytest.raises(BlockFileError) as raised:
            query.run_join("m1", window)
        assert str(raised.value) == (
            f"block payload checksum mismatch at {path.name}:{location.offset}"
        )
    finally:
        network.close()
