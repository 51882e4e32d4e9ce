"""Shared test helpers: build ingested networks for each model."""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Any, List, Sequence

from repro.common.codec import JsonCodec, write_uvarint
from repro.common.config import BlockCuttingConfig, FabricConfig
from repro.common.errors import ChaincodeError
from repro.fabric.audit import audit_ledger
from repro.fabric.block import GENESIS_PREVIOUS_HASH, VALID, Block, BlockHeader, RWSet, Transaction
from repro.fabric.chaincode import Chaincode, ChaincodeStub
from repro.fabric.ledger import Ledger
from repro.fabric.network import FabricNetwork
from repro.faults.doctor import DoctorReport
from repro.faults.fs import FileSystem
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


class KeyValueChaincode(Chaincode):
    """A minimal general-purpose chaincode: put / get / delete / put_many,
    the fixture application of the fabric tests."""

    name = "kv"

    def invoke(self, stub: ChaincodeStub, fn: str, args: List[Any]) -> Any:
        if fn == "put":
            key, value = args
            stub.put_state(key, value)
            return {"key": key}
        if fn == "get":
            (key,) = args
            return stub.get_state(key)
        if fn == "delete":
            (key,) = args
            stub.del_state(key)
            return {"key": key}
        if fn == "put_many":
            for key, value in args:
                stub.put_state(key, value)
            return {"count": len(args)}
        raise ChaincodeError(f"unknown function {fn!r} on chaincode {self.name!r}")


def audit(ledger: Ledger) -> DoctorReport:
    """What :func:`audit_ledger` finds on an open ``ledger``, in a report
    of its own."""
    report = DoctorReport(path="<open ledger>", backend="-", height=ledger.height)
    audit_ledger(ledger, report)
    return report


def table_rows(reader, start=None, end=None) -> list:
    """An SSTable reader's ``(key, value-or-None)`` entries with
    ``start <= key < end``, as the LSM merge reads them."""
    return list(zip(*reader.window(start, end)))


def small_workload() -> WorkloadData:
    return generate(SMALL_CONFIG)


def index_only_block(number: int, keys: Sequence[str]) -> Block:
    """An eager block of one VALID single-write transaction per key, for
    history-index traffic: nothing is serialized or signed."""
    transactions = []
    for key in keys:
        rw_set = RWSet()
        rw_set.add_write(key, number)
        transactions.append(Transaction(
            tx_id=f"idx-{number}-{key}",
            chaincode="kv",
            creator="indexer",
            timestamp=number,
            rw_set=rw_set,
            validation_code=VALID,
        ))
    return Block(BlockHeader(number, GENESIS_PREVIOUS_HASH, b""), transactions)


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


def rows_digest(engine: TemporalQueryEngine, model: str, window: TimeInterval) -> str:
    """SHA-256 of ``model``'s join rows over ``window`` (never empty)."""
    rows = engine.run_join(model, window).rows
    assert rows, f"{model} join returned nothing"
    return hashlib.sha256(repr(rows).encode("utf-8")).hexdigest()


def per_transaction_frame(block, codec) -> bytes:
    """``block`` in the superseded 0xF1 frame: a varint segment count, a
    varint length per segment, then ``[header, tx0, tx1, ...]`` with each
    transaction one ``Transaction.to_dict`` segment."""
    raw = block.to_dict()
    segments = [codec.encode(raw["header"])]
    segments.extend(codec.encode(tx) for tx in raw["transactions"])
    prefix, separator, suffix = codec.list_affixes()
    table = bytearray((0xF1,))
    write_uvarint(len(segments), table)
    for segment in segments:
        write_uvarint(len(segment), table)
    return bytes(table) + prefix + separator.join(segments) + suffix


#: ``tests.fabric.test_block.golden_block()`` as the removed ``binary``
#: block codec stored it: the same frame table, each segment a
#: tag-length-value encoding.
BINARY_GOLDEN_PAYLOAD = bytes.fromhex(
    "f2020300670000007100000097000000a4000000ae000000de000000e8000000"
    "2001000008080903066e756d62657203070d70726576696f75735f6861736807"
    "2011111111111111111111111111111111111111111111111111111111111111"
    "1109646174615f6861736807206d4e54b28f3ffff52b8ec9adaf39c7d85ef6b8"
    "f5d0461dd22fe1f0905660581f0802060474782d610329080706026363060561"
    "6c696365080007020102060556414c494406056d6f7665640802030100080306"
    "04626c6f62070200ff0108030604676f6e65000208030613736869706d656e74"
    "00d0bad0bbd18ed1872d3709020474656d7005c00c0000000000000261740603"
    "e58c97010802060474782d62032a0807060263630603626f6208010902016b06"
    "04626c6f620176080203060300070006124d5643435f524541445f434f4e464c"
    "494354060000"
)


class DecodeSpyCodec(JsonCodec):
    """JsonCodec recording the size of every payload it decodes."""

    def __init__(self) -> None:
        super().__init__()
        self.decoded: list[int] = []

    def decode(self, payload):
        self.decoded.append(len(payload))
        return super().decode(payload)


class HandleRecordingFS(FileSystem):
    """The real filesystem, keeping every handle it opens."""

    def __init__(self) -> None:
        self.opened: list = []

    def open(self, path, mode):
        handle = super().open(path, mode)
        self.opened.append(handle)
        return handle

    def all_closed(self) -> bool:
        """Whether it opened anything, and closed all of it."""
        return bool(self.opened) and all(handle.closed for handle in self.opened)
