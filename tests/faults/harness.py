"""Kill-point sweep machinery.

The pattern every crash test follows:

1. build a network on a :class:`FaultyFS` with an armed :class:`FaultPlan`;
2. drive a workload until the scheduled fault fires (``SimulatedCrashError``);
3. ``kill()`` the filesystem -- unflushed bytes vanish, exactly as in a
   real process kill (or power loss);
4. reopen the directory with the real filesystem and verify: hash chain
   intact, audit clean, no *acknowledged* transaction lost, doctor happy,
   and the network still accepts new work.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Set

from repro.common.config import (
    BlockCuttingConfig,
    BlockStoreConfig,
    FabricConfig,
    StateDbConfig,
)
from repro.common.errors import SimulatedCrashError
from repro.fabric.audit import audit_ledger
from repro.fabric.block import VALID
from repro.fabric.chaincode import KeyValueChaincode
from repro.fabric.network import FabricNetwork
from repro.faults import FaultPlan, FaultyFS, active_plan
from repro.faults.doctor import run_doctor


def lsm_config(
    max_message_count: int = 4,
    memtable_limit: int = 24,
    durability: str = "flush",
    codec: str = "json",
    cache_blocks: int = 0,
) -> FabricConfig:
    """A config that exercises every storage layer: the LSM state-db
    with a tiny memtable (frequent WAL and table activity) and small
    blocks, stored under ``codec`` behind a ``cache_blocks`` block cache."""
    return FabricConfig(
        block_cutting=BlockCuttingConfig(max_message_count=max_message_count),
        state_db=StateDbConfig(
            backend="lsm", memtable_limit=memtable_limit, durability=durability
        ),
        block_store=BlockStoreConfig(
            durability=durability, codec=codec, cache_blocks=cache_blocks
        ),
    )


@dataclass
class CrashOutcome:
    """What the workload managed before the fault fired."""

    fired: Optional[str]
    acked_tx_ids: Set[str]
    submitted: int


def run_kv_workload_until_crash(
    path: Path,
    config: FabricConfig,
    plan: FaultPlan,
    total_txs: int = 160,
    distinct_keys: int = 64,  # must exceed the memtable limit or the LSM never flushes
    power_loss: bool = False,
) -> CrashOutcome:
    """Drive puts through a faulty filesystem until ``plan`` fires.

    Returns the fault that fired and the transaction ids the client saw
    acknowledged (their block's commit completed) before the crash.
    """
    fs = FaultyFS(plan)
    network = FabricNetwork(path, config=config, fs=fs)
    network.install(KeyValueChaincode())
    acked: Set[str] = set()

    def listener(block) -> None:
        for tx in block.transactions:
            if tx.validation_code == VALID:
                acked.add(tx.tx_id)

    network.on_block(listener)
    gateway = network.gateway("writer")
    submitted = 0
    try:
        with active_plan(plan):
            for i in range(total_txs):
                gateway.submit_transaction(
                    "kv", "put", [f"k{i % distinct_keys}", i], timestamp=i + 1
                )
                submitted += 1
            gateway.flush()
    except SimulatedCrashError:
        pass
    finally:
        fs.kill(power_loss=power_loss)
    return CrashOutcome(fired=plan.fired, acked_tx_ids=acked, submitted=submitted)


def reopen_and_verify(path: Path, config: FabricConfig, acked: Set[str]) -> None:
    """Recovery must yield a self-consistent ledger holding every
    acknowledged transaction."""
    network = FabricNetwork(path, config=config)
    try:
        ledger = network.ledger
        ledger.verify_chain()
        committed = {
            tx.tx_id
            for block in ledger.block_store.iter_blocks()
            for tx in block.transactions
            if tx.validation_code == VALID
        }
        lost = acked - committed
        assert not lost, f"acknowledged transactions lost in the crash: {lost}"
        report = audit_ledger(ledger)
        assert report.ok, report.render()
    finally:
        network.close()
    doctor = run_doctor(path, config=config)
    assert doctor.ok, doctor.render()


def continue_workload(path: Path, config: FabricConfig, extra_txs: int = 12) -> None:
    """The recovered network must keep accepting and committing work."""
    network = FabricNetwork(path, config=config)
    try:
        network.install(KeyValueChaincode())
        gateway = network.gateway("writer-after-crash")
        height_before = network.ledger.height
        for i in range(extra_txs):
            gateway.submit_transaction(
                "kv", "put", [f"post{i}", i], timestamp=100_000 + i
            )
        gateway.flush()
        assert network.ledger.height > height_before
        network.ledger.verify_chain()
    finally:
        network.close()
