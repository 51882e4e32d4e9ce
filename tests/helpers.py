"""Shared test helpers: build ingested networks for each model."""

from __future__ import annotations

import hashlib
from pathlib import Path

from repro.common.codec import JsonCodec, write_uvarint
from repro.common.config import BlockCuttingConfig, FabricConfig
from repro.fabric.network import FabricNetwork
from repro.temporal.chaincodes import (
    M1IndexChaincode,
    M2SupplyChainChaincode,
    SupplyChainChaincode,
)
from repro.temporal.engine import TemporalQueryEngine
from repro.temporal.intervals import TimeInterval
from repro.temporal.m1 import M1Indexer
from repro.workload.generator import WorkloadConfig, WorkloadData, generate
from repro.workload.ingest import ingest

#: A small but non-trivial workload used across temporal tests: 6 shipments,
#: 3 containers, 2 trucks, 20 events per key over a 1000-tick timeline.
SMALL_CONFIG = WorkloadConfig(
    name="small",
    n_shipments=6,
    n_containers=3,
    n_trucks=2,
    events_per_key=20,
    t_max=1_000,
    distribution="uniform",
    seed=99,
)


def small_workload() -> WorkloadData:
    return generate(SMALL_CONFIG)


def fabric_config(max_message_count: int = 10) -> FabricConfig:
    return FabricConfig(
        block_cutting=BlockCuttingConfig(max_message_count=max_message_count)
    )


def build_plain_network(
    path: Path, data: WorkloadData, strategy: str = "me"
) -> FabricNetwork:
    """Network ingested with original keys (TQF / Model M1 substrate)."""
    network = FabricNetwork(path, config=fabric_config())
    network.install(SupplyChainChaincode())
    network.install(M1IndexChaincode())
    gateway = network.gateway("ingestor")
    ingest(gateway, data.events, SupplyChainChaincode.name, strategy=strategy)
    return network


def build_m2_network(
    path: Path, data: WorkloadData, u: int, strategy: str = "me"
) -> FabricNetwork:
    """Network ingested through the Model M2 key transformation."""
    network = FabricNetwork(path, config=fabric_config())
    network.install(M2SupplyChainChaincode(u=u))
    gateway = network.gateway("ingestor")
    ingest(gateway, data.events, M2SupplyChainChaincode.name, strategy=strategy)
    return network


def build_m1_index(network: FabricNetwork, t1: int, t2: int, u: int):
    """Run the M1 indexing process over ``(t1, t2]``."""
    indexer = M1Indexer(
        ledger=network.ledger,
        gateway=network.gateway("indexer"),
        key_prefixes=["S", "C"],
        metrics=network.metrics,
    )
    return indexer.run(t1, t2, u)


#: What two ledgers that committed the same chain agree on, whatever
#: their configuration (``ledger_summary`` adds the storage-dependent
#: ``bytes``).
LEDGER_FIELDS = ("height", "head", "chain", "codes", "state")


def ledger_summary(network: FabricNetwork) -> dict:
    """Height, chain head, header hashes, validation codes, state
    fingerprint and block-file bytes of ``network``'s ledger."""
    blocks = list(network.ledger.block_store.iter_blocks())
    return {
        "height": network.ledger.height,
        "head": network.ledger.last_header_hash,
        "chain": [block.header.hash() for block in blocks],
        "codes": [tx.validation_code for block in blocks for tx in block.transactions],
        "state": network.ledger.state_fingerprint(),
        "bytes": network.ledger.block_store.total_bytes(),
    }


def rows_digest(
    engine: TemporalQueryEngine, model: str, window: TimeInterval, degrade: bool = False
) -> str:
    """SHA-256 of ``model``'s join rows over ``window`` (never empty)."""
    rows = engine.run_join(model, window, degrade=degrade).rows
    assert rows, f"{model} join returned nothing"
    return hashlib.sha256(repr(rows).encode("utf-8")).hexdigest()


def per_transaction_frame(block, codec) -> bytes:
    """``block`` in the superseded 0xF1 frame: a varint segment count, a
    varint length per segment, then ``[header, tx0, tx1, ...]`` with each
    transaction one ``Transaction.to_dict`` segment."""
    raw = block.to_dict()
    segments = [codec.encode(raw["header"])]
    segments.extend(codec.encode(tx) for tx in raw["transactions"])
    prefix, separator, suffix = codec.list_affixes(len(segments))
    table = bytearray((0xF1,))
    write_uvarint(len(segments), table)
    for segment in segments:
        write_uvarint(len(segment), table)
    return bytes(table) + prefix + separator.join(segments) + suffix


class DecodeSpyCodec(JsonCodec):
    """JsonCodec recording the size of every payload it decodes."""

    def __init__(self) -> None:
        super().__init__()
        self.decoded: list[int] = []

    def decode(self, payload):
        self.decoded.append(len(payload))
        return super().decode(payload)
