"""The paper's cost counters, pinned as literals across commits.

Every other counter test compares two runs of one tree (models against
each other, shapes against the serial shape, a sweep against its
repeat).  Nothing compares a tree against its *parent*, so a read-path
change that touched one block more per GHFK call on every model alike
would pass them all.  Here one seeded DS1 multi-event ledger and one DS3
single-event ledger are swept over three windows under each model, and
the counters the paper argues from -- plus the rows -- are literals
measured on the tree *before* the GHFK result path was rebuilt (PR 18).
An optimisation may make a block cheaper to touch; it may not move these.
``range_scan_calls`` joined them one PR before the range scan itself was
changed (PR 21), measured on that PR's parent: two ``list_keys`` scans
per query, plus one scan per key for M2.  M1's ``get_state_calls`` went
150 -> 3 and 120 -> 3 when a query began to resolve its plan once (PR 24):
it used to read the run metadata twice per key (``indexed_until()`` and
the interval listing, 2 x 25 and 2 x 20 keys x 3 windows) for an answer
that is the same for every key, and now reads it once per query.
Only ``block_bytes_read`` moved when the block payload became
write-addressable (frame 0xF2): the same blocks are read, each
smaller (a transaction is a ``[tx_id, timestamp]`` head, a body and one
``[key, value, is_delete]`` list per write, so the per-transaction dict
keys are gone; the segment table is four bytes per segment), 27-33%
fewer bytes on these ledgers.  ``txs_decoded`` keeps its meaning: one
tick per transaction first decoded, a head read by history or a
transaction built.

The same two ledgers are also built on the ``lsm`` state-db, with a
memtable of :data:`LSM_MEMTABLE_LIMIT` entries: the states spread over
several SSTables and the memtable, and M1's cleared bundles leave
tombstones among them, so every listing and per-key scan of all three
models merges sources and drops deleted keys.  They must read the same
literals: the backend stores states, it does not choose which blocks a
query touches.

A literal changes only with the on-disk format or the query algorithms
themselves; regenerate with ``PYTHONPATH=src python
tests/temporal/test_paper_counters_pinned.py`` and say why in the commit.
The builders are local rather than ``tests.helpers``' so that the file
runs unchanged against another commit's ``src`` (it passes on PR 17's).
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Dict, NamedTuple

import pytest

from repro.common import metrics as metric_names
from repro.common.config import BlockCuttingConfig, FabricConfig, StateDbConfig
from repro.fabric.network import FabricNetwork
from repro.temporal.chaincodes import (
    M1IndexChaincode,
    M2SupplyChainChaincode,
    SupplyChainChaincode,
)
from repro.temporal.engine import TemporalQueryEngine
from repro.temporal.intervals import TimeInterval
from repro.temporal.m1 import M1Indexer
from repro.workload import datasets
from repro.workload.generator import WorkloadConfig, generate
from repro.workload.ingest import ingest

MODELS = ("tqf", "m1", "m2")


class Pinned(NamedTuple):
    """One model's sweep over the three windows of one ledger."""

    ghfk_calls: int
    ghfk_results: int
    blocks_deserialized: int
    block_bytes_read: int
    txs_decoded: int
    get_state_calls: int
    range_scan_calls: int
    #: First 16 hex digits of SHA-256 over every window's join rows.
    rows: str


COUNTERS = (
    metric_names.GHFK_CALLS,
    metric_names.GHFK_RESULTS,
    metric_names.BLOCKS_DESERIALIZED,
    metric_names.BLOCK_BYTES_READ,
    metric_names.TXS_DECODED,
    metric_names.GET_STATE_CALLS,
    metric_names.RANGE_SCAN_CALLS,
)

LEDGERS: Dict[str, WorkloadConfig] = {
    "ds1-me": datasets.ds1(scale=0.02, entity_scale=0.05, seed=11),
    "ds3-se": datasets.ds3(scale=0.01, entity_scale=1.0, seed=37),
}

EXPECTED: Dict[str, Dict[str, Pinned]] = {
    "ds1-me": {
        "tqf": Pinned(75, 2082, 911, 3742759, 2082, 0, 6, "48345eab7780d6ea"),
        "m1": Pinned(375, 326, 326, 934482, 326, 3, 6, "48345eab7780d6ea"),
        "m2": Pinned(326, 1000, 529, 3036424, 1000, 0, 81, "48345eab7780d6ea"),
    },
    "ds3-se": {
        "tqf": Pinned(60, 783, 589, 1379517, 783, 0, 6, "73453535b8b21e72"),
        "m1": Pinned(300, 200, 200, 539375, 200, 3, 6, "73453535b8b21e72"),
        "m2": Pinned(200, 400, 307, 839990, 400, 0, 66, "73453535b8b21e72"),
    },
}


#: The ``lsm`` ledgers' memtable: small enough that each ledger's states
#: (a few hundred) fill several SSTables and trigger compactions.
LSM_MEMTABLE_LIMIT = 16


def fabric_config(max_message_count: int = 10, backend: str = "memory") -> FabricConfig:
    """The paper's measurement setup, spelled out so no environment
    variable a CI leg sets can move a literal."""
    return FabricConfig(
        block_cutting=BlockCuttingConfig(max_message_count=max_message_count),
        # ``memory`` ignores the memtable limit.
        state_db=StateDbConfig(backend=backend, memtable_limit=LSM_MEMTABLE_LIMIT),
    )


def windows(t_max: int):
    third = t_max // 3
    return [TimeInterval(i * third, (i + 1) * third) for i in range(3)]


def build_plain(
    path,
    workload: WorkloadConfig,
    index: bool = True,
    max_message_count: int = 10,
    backend: str = "memory",
) -> FabricNetwork:
    """Plain ledger, by default with a full M1 index at ``u = t_max / 15``."""
    network = FabricNetwork(path / "plain", config=fabric_config(max_message_count, backend))
    network.install(SupplyChainChaincode())
    network.install(M1IndexChaincode())
    ingest(network.gateway("ingestor"), generate(workload).events,
           SupplyChainChaincode.name, strategy=workload.ingestion)
    if index:
        M1Indexer(
            ledger=network.ledger,
            gateway=network.gateway("indexer"),
            key_prefixes=["S", "C"],
            metrics=network.metrics,
        ).run(0, workload.t_max, workload.t_max // 15)
    return network


def build_m2(path, workload: WorkloadConfig, backend: str = "memory") -> FabricNetwork:
    network = FabricNetwork(path / "m2", config=fabric_config(backend=backend))
    network.install(M2SupplyChainChaincode(u=workload.t_max // 15))
    ingest(network.gateway("ingestor"), generate(workload).events,
           M2SupplyChainChaincode.name, strategy=workload.ingestion)
    return network


def sweep(network: FabricNetwork, model: str, t_max: int) -> Pinned:
    engine = TemporalQueryEngine(network.ledger, network.metrics)
    hasher = hashlib.sha256()
    before = network.metrics.snapshot()
    for window in windows(t_max):
        for row in engine.run_join(model, window).rows:
            hasher.update(
                f"{row.shipment}|{row.truck}|{row.container}|"
                f"{row.interval.start}|{row.interval.end}\n".encode()
            )
    delta = network.metrics.snapshot().diff(before)
    return Pinned(*(delta.counter(name) for name in COUNTERS), hasher.hexdigest()[:16])


def measure(path, workload: WorkloadConfig, backend: str = "memory") -> Dict[str, Pinned]:
    plain = build_plain(path, workload, backend=backend)
    m2 = build_m2(path, workload, backend=backend)
    try:
        return {
            model: sweep(m2 if model == "m2" else plain, model, workload.t_max)
            for model in MODELS
        }
    finally:
        plain.close()
        m2.close()


@pytest.fixture(
    scope="module", params=sorted(LEDGERS) + [f"{name}-lsm" for name in sorted(LEDGERS)]
)
def measured(request, tmp_path_factory):
    """``(ledger name, sweeps)``; a ``-lsm`` id builds the ledger on the
    ``lsm`` state-db."""
    name = request.param.removesuffix("-lsm")
    backend = "memory" if name == request.param else "lsm"
    return name, measure(tmp_path_factory.mktemp(request.param), LEDGERS[name], backend)


@pytest.mark.parametrize("model", MODELS)
def test_counters_and_rows_are_the_pinned_literals(measured, model):
    name, sweeps = measured
    assert sweeps[model] == EXPECTED[name][model]


def test_the_models_agree_and_the_ledgers_are_not_trivial(measured):
    """The literals pin a real sweep: rows exist, every model returns the
    same ones, and the paper's ordering of block accesses holds."""
    _, sweeps = measured
    assert len({pinned.rows for pinned in sweeps.values()}) == 1
    assert sweeps["tqf"].rows != hashlib.sha256().hexdigest()[:16]
    assert sweeps["tqf"].blocks_deserialized > sweeps["m1"].blocks_deserialized > 0
    assert sweeps["tqf"].blocks_deserialized > sweeps["m2"].blocks_deserialized > 0
    for pinned in sweeps.values():
        assert pinned.blocks_deserialized <= pinned.txs_decoded <= pinned.ghfk_results


def test_the_lsm_ledger_lists_the_memory_ledgers_states(tmp_path):
    """The sweeps never list a deleted key: the only deletes are M1's
    cleared bundles, which every listing drops by their shape.  So the
    literals cannot see a keys-only merge that lets a tombstone through or
    an older table win; the full listing of the indexed ledger can."""
    workload = LEDGERS["ds1-me"]
    listings = []
    for backend in ("memory", "lsm"):
        network = build_plain(tmp_path / backend, workload, backend=backend)
        try:
            listings.append(network.ledger.state_db.keys_in_range("", ""))
        finally:
            network.close()
    assert listings[0] == listings[1]


def test_a_smaller_block_cut_spreads_tqf_over_more_blocks(tmp_path):
    """The orderer's cut decides how many blocks a key's events spread
    over: TQF reads more of them under a 5-transaction cut than under a
    50-transaction one.  An M1 bundle is one write, so M1 reads at most
    one block per GHFK call at any cut, and the rows never move."""
    workload = LEDGERS["ds1-me"]
    tqf_blocks = {}
    for cut in (5, 50):
        network = build_plain(tmp_path / f"cut{cut}", workload, max_message_count=cut)
        try:
            tqf, m1 = (sweep(network, model, workload.t_max) for model in ("tqf", "m1"))
        finally:
            network.close()
        assert tqf.rows == m1.rows == EXPECTED["ds1-me"]["tqf"].rows, cut
        assert 0 < m1.blocks_deserialized <= m1.ghfk_calls, cut
        tqf_blocks[cut] = tqf.blocks_deserialized
    assert tqf_blocks[5] > tqf_blocks[50]


def test_single_event_ingest_spreads_tqf_over_more_blocks(tmp_path):
    """SE spends a transaction per event, ME one per run of distinct
    keys: the same DS3 events ingested ME put each key's history in
    fewer blocks, so TQF reads fewer of them for the same rows."""
    workload = dataclasses.replace(LEDGERS["ds3-se"], ingestion="me")
    network = build_plain(tmp_path, workload, index=False)
    try:
        me = sweep(network, "tqf", workload.t_max)
    finally:
        network.close()
    se = EXPECTED["ds3-se"]["tqf"]
    assert me.rows == se.rows
    assert se.blocks_deserialized > me.blocks_deserialized


if __name__ == "__main__":  # prints the EXPECTED table for this tree
    import pprint
    import tempfile
    from pathlib import Path

    table = {}
    for ledger_name, ledger_workload in sorted(LEDGERS.items()):
        with tempfile.TemporaryDirectory() as scratch:
            table[ledger_name] = measure(Path(scratch), ledger_workload)
    pprint.pprint(table, width=100)
