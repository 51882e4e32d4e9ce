"""Configuration-matrix oracle: one workload, every supported configuration.

The knob that changes *how* a ledger is stored -- the state-db backend
-- must never change *what* it holds.  One seeded workload (blind
supply-chain writes, ``kv`` traffic, a back-to-back checked pair that
yields one ``MVCC_READ_CONFLICT``, a delete, an M1 indexing run, one join
per model and M2's base access) runs under each backend, and every cell
must produce the same head hash, hash chain, validation codes, state
fingerprint, join rows and GetState-Base / GHFK-Base answers.
"""

from __future__ import annotations

import hashlib
from contextlib import closing

import pytest

from repro.common import metrics as metric_names
from repro.common.config import BlockCuttingConfig, FabricConfig, StateDbConfig
from repro.fabric.block import MVCC_READ_CONFLICT, VALID
from repro.fabric.network import FabricNetwork
from repro.temporal.chaincodes import (
    M1IndexChaincode,
    M2SupplyChainChaincode,
    SupplyChainChaincode,
)
from repro.temporal.engine import TemporalQueryEngine
from repro.temporal.intervals import TimeInterval
from repro.temporal.m2 import BaseAccessAPI
from repro.workload.generator import WorkloadConfig, generate
from repro.workload.ingest import ingest
from tests.helpers import LEDGER_FIELDS, KeyValueChaincode, build_m1_index, ledger_summary, rows_digest

WORKLOAD = WorkloadConfig(
    name="matrix",
    n_shipments=4,
    n_containers=2,
    n_trucks=2,
    events_per_key=8,
    t_max=240,
    seed=7,
)
U = WORKLOAD.t_max // 6
WINDOW = TimeInterval(WORKLOAD.t_max // 4, 3 * WORKLOAD.t_max // 4)
#: GetState-Base clocks: mid-timeline, and two empty intervals past its end.
BASE_CLOCKS = (WORKLOAD.t_max // 2 + 1, WORKLOAD.t_max + 2 * U)

#: ``state_fingerprint`` of the two ledgers, measured on the tree *before*
#: state values were decoded lazily (PR 21): every cell agreeing with the
#: reference proves nothing if the reference itself moved.
STATE_FINGERPRINTS = {
    "plain": "5502966016309899fc219f9b28c34cbf550a97eae2cdccc48e1f4757303c7932",
    "m2": "ff969aca35b6d6e4a7051c795de782b4394301ac7c838a1f3e38221e7e9165f5",
}

#: State-db backends.
CELLS = ["memory", "lsm"]
REFERENCE = CELLS[0]


def fabric_config(backend: str) -> FabricConfig:
    """Small blocks, and an LSM memtable far smaller than the key set, so
    the ``lsm`` cells answer from SSTables and compact them."""
    return FabricConfig(
        block_cutting=BlockCuttingConfig(max_message_count=5),
        state_db=StateDbConfig(backend=backend, memtable_limit=8, compaction_trigger=3),
    )


def history_index(network: FabricNetwork) -> dict:
    """Every key's history locations, as the ledger's index holds them."""
    history = network.ledger.history_db
    return {key: history.locations_for_key(key) for key in history.keys()}


def run_workload(path, backend: str) -> dict:
    """Drive the workload through a plain and an M2 network under one
    configuration; return what every configuration must agree on."""
    config = fabric_config(backend)
    events = generate(WORKLOAD).events
    result: dict = {"rows": {}}
    with closing(FabricNetwork(path / "plain", config=config)) as network:
        network.install(SupplyChainChaincode())
        network.install(KeyValueChaincode())
        network.install(M1IndexChaincode())
        gateway = network.gateway("alice")
        gateway.submit_transaction(
            "supplychain", "record_event", ["c", "ship", 1, "l"], timestamp=1
        )
        gateway.flush()
        for i, event in enumerate(events):
            gateway.submit_transaction(
                "supplychain",
                "record_event",
                [event.key, event.other, event.time, event.kind],
                timestamp=event.time,
            )
            if i % 5 == 0:
                gateway.submit_transaction(
                    "kv", "put", [f"k{i % 3}", {"i": i}], timestamp=event.time
                )
        # Two checked events on the same entity, endorsed back-to-back:
        # both read the same committed version, the first one's write
        # invalidates the second at commit.
        for time in (WORKLOAD.t_max + 1, WORKLOAD.t_max + 2):
            gateway.submit_transaction(
                "supplychain",
                "record_event_checked",
                ["c", "ship", time, "ul"],
                timestamp=time,
            )
        gateway.submit_transaction("kv", "delete", ["k1"], timestamp=WORKLOAD.t_max + 3)
        gateway.flush()
        build_m1_index(network, 0, WORKLOAD.t_max, U)
        engine = TemporalQueryEngine(network.ledger, network.metrics)
        for model in ("tqf", "m1"):
            result["rows"][model] = rows_digest(engine, model, WINDOW)
        result["plain"] = ledger_summary(network)
        result["history"] = {"plain": history_index(network)}
        result["deleted"] = (
            network.ledger.get_state("k1"),
            [entry.is_delete for entry in network.ledger.get_history_for_key("k1")],
        )
        result["sstable_reads"] = network.metrics.snapshot().counter(metric_names.KV_SSTABLE_READS)
        result["compactions"] = network.metrics.snapshot().counter(metric_names.KV_COMPACTIONS)
    with closing(FabricNetwork(path / "m2", config=config)) as network:
        network.install(M2SupplyChainChaincode(u=U))
        ingest(network.gateway("alice"), events, M2SupplyChainChaincode.name, strategy="se")
        engine = TemporalQueryEngine(network.ledger, network.metrics)
        result["rows"]["m2"] = rows_digest(engine, "m2", WINDOW)
        result["m2"] = ledger_summary(network)
        result["history"]["m2"] = history_index(network)
        result["base"] = base_access(network, sorted({event.key for event in events}))
    return result


def base_access(network: FabricNetwork, keys) -> dict:
    """GetState-Base ``(value, probes)`` of every key at two clocks -- the
    ``lsm`` cells answer through their SSTables' Bloom filters -- and a
    digest of every key's GHFK-Base entries."""
    api = BaseAccessAPI(network.ledger, u=U, metrics=network.metrics)
    get_state = {}
    for now in BASE_CLOCKS:
        for key in keys:
            result = api.get_state_base(key, now)
            get_state[key, now] = (result.value, result.probes)
    entries = [
        (key, [(entry.timestamp, entry.value, entry.is_delete)
               for entry in api.ghfk_base(key, BASE_CLOCKS[-1])])
        for key in keys
    ]
    return {
        "get_state": get_state,
        "ghfk": hashlib.sha256(repr(entries).encode("utf-8")).hexdigest(),
    }


@pytest.fixture(scope="module")
def cells(tmp_path_factory):
    """``cell -> (ledger directory, result)`` for every cell."""
    built = {}
    for cell in CELLS:
        path = tmp_path_factory.mktemp(cell)
        built[cell] = (path, run_workload(path, cell))
    return built


def test_workload_is_non_vacuous(cells):
    _, reference = cells[REFERENCE]
    codes = reference["plain"]["codes"]
    assert reference["plain"]["height"] > 5  # several multi-tx blocks
    assert codes.count(MVCC_READ_CONFLICT) == 1
    assert codes.count(VALID) > 30
    # The delete committed: gone from the state-db, a tombstone in history.
    value, history = reference["deleted"]
    assert value is None and history[-1] is True and not all(history)
    # All three models answered, with the same rows.
    assert len(set(reference["rows"].values())) == 1
    # GetState-Base found states, some past empty intervals; GHFK-Base
    # found history.
    probes = reference["base"]["get_state"].values()
    assert any(value is not None for value, _ in probes)
    assert max(count for _, count in probes) > 2
    # The ``lsm`` cells were answered from (and compacted) SSTables.
    for cell, (_, result) in cells.items():
        if cell == "lsm":
            assert result["sstable_reads"] > 0 and result["compactions"] > 0, cell


def test_reference_state_is_the_pinned_fingerprint(cells):
    _, reference = cells[REFERENCE]
    for ledger, fingerprint in STATE_FINGERPRINTS.items():
        assert reference[ledger]["state"] == fingerprint, ledger


@pytest.mark.parametrize("cell", CELLS[1:])
def test_every_cell_equals_the_reference(cells, cell):
    _, reference = cells[REFERENCE]
    _, result = cells[cell]
    for ledger in ("plain", "m2"):
        for field in LEDGER_FIELDS:
            assert result[ledger][field] == reference[ledger][field], (ledger, field)
    assert result["rows"] == reference["rows"]
    assert result["deleted"] == reference["deleted"]
    assert result["base"] == reference["base"]


@pytest.mark.parametrize("written, reopened", [("lsm", "memory"), ("memory", "lsm")])
def test_reopen_under_the_other_backend_recovers_the_state(cells, written, reopened):
    """Recovery replays the chain: a ledger written under one backend and
    reopened under the other lands on the same height and fingerprint,
    and rebuilds the history index its commits built -- the invalidated
    transaction, the delete and the M1 bundles included."""
    path, result = cells[written]
    for ledger in ("plain", "m2"):
        with closing(FabricNetwork(path / ledger, config=fabric_config(reopened))) as network:
            assert network.ledger.height == result[ledger]["height"]
            assert network.ledger.state_fingerprint() == result[ledger]["state"]
            assert history_index(network) == result["history"][ledger]
            network.ledger.verify_chain()


def test_reopen_under_lsm_rebuilds_the_index_from_the_frames(cells):
    """Reopened under the backend that wrote it, an ``lsm`` ledger replays
    no block: the history index is rebuilt from block frames alone, and
    is the one its commits built."""
    path, result = cells["lsm"]
    for ledger in ("plain", "m2"):
        with closing(FabricNetwork(path / ledger, config=fabric_config("lsm"))) as network:
            assert network.metrics.snapshot().counter(metric_names.TXS_DECODED) == 0
            assert history_index(network) == result["history"][ledger]
            assert network.ledger.state_fingerprint() == result[ledger]["state"]
