"""Model M2's base access, its cost counters pinned as literals.

GetState-Base (Table IV) is one ``GetState`` per index interval walked
back from ``now``; GHFK-Base is one GHFK per interval from ``(0, u]``.
Here one seeded M2 ledger on the ``lsm`` state-db -- a memtable small
enough that the keys spread over several SSTables, so every probe goes
through the Bloom filters -- answers GetState-Base for every key at two
clocks and GHFK-Base for every key.  The probe count, the state-db and
KV read counters, the history counters and a digest of the answers are
literals measured on the tree *before* the walks spelled their keys from
integers (commit ``67171bc``): a faster probe may not be a different one.

A literal changes only with the on-disk format or the base-access
algorithms themselves; regenerate with ``PYTHONPATH=src python
tests/temporal/test_base_access_pinned.py`` and say why in the commit.
The file uses only the API its parent had, so it runs unchanged against
that commit's ``src``.
"""

from __future__ import annotations

import hashlib
from typing import NamedTuple

import pytest

from repro.common import metrics as metric_names
from repro.common.config import BlockCuttingConfig, FabricConfig, StateDbConfig
from repro.fabric.network import FabricNetwork
from repro.temporal.chaincodes import M2SupplyChainChaincode
from repro.temporal.m2 import BaseAccessAPI
from repro.workload.generator import WorkloadConfig, generate
from repro.workload.ingest import ingest

WORKLOAD = WorkloadConfig(
    name="base-access",
    n_shipments=8,
    n_containers=4,
    n_trucks=2,
    events_per_key=10,
    t_max=600,
    seed=23,
)
U = 40
#: One clock inside the timeline, one three empty intervals past its end.
CLOCKS = (WORKLOAD.t_max // 2 + 7, WORKLOAD.t_max + 3 * U)
#: Never written: its probes walk every interval down to ``(0, u]``.
UNKNOWN_KEY = "S99999"


class Pinned(NamedTuple):
    probes: int
    get_state_calls: int
    kv_reads: int
    bloom_negatives: int
    sstable_reads: int
    ghfk_calls: int
    ghfk_results: int
    blocks_deserialized: int
    #: First 16 hex digits of SHA-256 over every answer.
    answers: str


EXPECTED = Pinned(
    probes=106,
    get_state_calls=106,
    kv_reads=106,
    bloom_negatives=439,
    sstable_reads=22,
    ghfk_calls=234,
    ghfk_results=120,
    blocks_deserialized=88,
    answers="b11be531dfd0f185",
)


def build(path) -> FabricNetwork:
    config = FabricConfig(
        block_cutting=BlockCuttingConfig(max_message_count=5),
        state_db=StateDbConfig(backend="lsm", memtable_limit=16, compaction_trigger=16),
    )
    network = FabricNetwork(path, config=config)
    network.install(M2SupplyChainChaincode(u=U))
    ingest(
        network.gateway("ingestor"), generate(WORKLOAD).events,
        M2SupplyChainChaincode.name,
    )
    return network


def measure(network: FabricNetwork) -> Pinned:
    """GetState-Base of every key at both clocks, then GHFK-Base of every
    key, counted from one registry snapshot to the next."""
    api = BaseAccessAPI(network.ledger, u=U, metrics=network.metrics)
    keys = sorted({event.key for event in generate(WORKLOAD).events}) + [UNKNOWN_KEY]
    answers = []
    probes = 0
    before = network.metrics.snapshot()
    for now in CLOCKS:
        for key in keys:
            result = api.get_state_base(key, now)
            probes += result.probes
            answers.append((key, now, result.value, result.probes))
    for key in keys:
        answers.append(
            (key, [(entry.timestamp, entry.value, entry.is_delete)
                   for entry in api.ghfk_base(key, CLOCKS[-1])])
        )
    delta = network.metrics.snapshot().diff(before)
    return Pinned(
        probes=probes,
        get_state_calls=delta.counter(metric_names.GET_STATE_CALLS),
        kv_reads=delta.counter(metric_names.KV_READS),
        bloom_negatives=delta.counter(metric_names.KV_BLOOM_NEGATIVES),
        sstable_reads=delta.counter(metric_names.KV_SSTABLE_READS),
        ghfk_calls=delta.counter(metric_names.GHFK_CALLS),
        ghfk_results=delta.counter(metric_names.GHFK_RESULTS),
        blocks_deserialized=delta.counter(metric_names.BLOCKS_DESERIALIZED),
        answers=hashlib.sha256(repr(answers).encode("utf-8")).hexdigest()[:16],
    )


@pytest.fixture(scope="module")
def network(tmp_path_factory):
    network = build(tmp_path_factory.mktemp("m2-base-pinned"))
    yield network
    network.close()


def test_the_ledger_answers_from_several_sstables(network):
    store = network.ledger.state_db._store  # non-vacuity check only
    assert store.sstable_count >= 3


def test_counters_and_answers_are_the_pinned_literals(network):
    assert measure(network) == EXPECTED


def test_every_probe_is_one_state_db_point_read(network):
    measured = measure(network)
    assert measured.get_state_calls == measured.kv_reads == measured.probes
    # Every probe past the memtable asked every table's filter or searched it.
    assert measured.bloom_negatives > 0 and measured.sstable_reads > 0


if __name__ == "__main__":  # prints the EXPECTED literal for this tree
    import tempfile

    with tempfile.TemporaryDirectory() as directory:
        built = build(directory)
        try:
            print(measure(built))
        finally:
            built.close()
