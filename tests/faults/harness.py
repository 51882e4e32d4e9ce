"""Kill-point sweep machinery.

The pattern every crash test follows:

1. build a network on a :class:`FaultyFS` with an armed :class:`FaultPlan`;
2. drive a workload until the scheduled fault fires (``SimulatedCrashError``);
3. ``kill()`` the filesystem -- unflushed bytes vanish, exactly as in a
   real process kill (or power loss);
4. reopen the directory with the real filesystem and verify: hash chain
   intact, audit clean, no *acknowledged* transaction lost, doctor happy,
   the ledger equal to a fault-free run of the same workload at the
   recovered height, and the network still accepts new work.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Set

from repro.common.config import (
    BlockCuttingConfig,
    BlockStoreConfig,
    FabricConfig,
    StateDbConfig,
)
from repro.common.errors import SimulatedCrashError
from repro.fabric.audit import audit_ledger
from repro.fabric.block import GENESIS_PREVIOUS_HASH, VALID
from repro.fabric.chaincode import KeyValueChaincode
from repro.fabric.network import FabricNetwork
from repro.faults import FaultPlan, FaultyFS, active_plan
from repro.faults.doctor import run_doctor
from tests.helpers import LEDGER_FIELDS, ledger_summary


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


class HeightRecord:
    """A block listener recording, after every committed block, what a
    ledger recovered at that height must equal (``LEDGER_FIELDS``)."""

    def __init__(self, network: FabricNetwork) -> None:
        self._ledger = network.ledger
        self.chain: List[bytes] = []
        self.codes: List[List[int]] = []
        self.states = [self._ledger.state_fingerprint()]
        network.on_block(self)

    def __call__(self, block) -> None:
        self.chain.append(block.header.hash())
        self.codes.append([tx.validation_code for tx in block.transactions])
        self.states.append(self._ledger.state_fingerprint())

    @property
    def height(self) -> int:
        return len(self.chain)

    def txs_at(self, height: int) -> int:
        """Transactions in the first ``height`` blocks."""
        return sum(len(codes) for codes in self.codes[:height])

    def at(self, height: int) -> dict:
        assert height <= self.height, f"height {height} is past the reference's {self.height}"
        return {
            "height": height,
            "head": self.chain[height - 1] if height else GENESIS_PREVIOUS_HASH,
            "chain": self.chain[:height],
            "codes": [code for codes in self.codes[:height] for code in codes],
            "state": self.states[height],
        }


def acked_tx_ids(network: FabricNetwork) -> Set[str]:
    """The ids of the valid transactions the client will see committed
    on ``network``, filled in by a block listener as blocks commit."""
    acked: Set[str] = set()

    def listener(block) -> None:
        acked.update(tx.tx_id for tx in block.transactions if tx.validation_code == VALID)

    network.on_block(listener)
    return acked


def submit_kv_puts(gateway, total_txs: int, distinct_keys: int) -> None:
    """The KV workload: ``total_txs`` puts over ``distinct_keys`` keys."""
    for i in range(total_txs):
        gateway.submit_transaction(
            "kv", "put", [f"k{i % distinct_keys}", i], timestamp=i + 1
        )
    gateway.flush()


def kv_reference(
    path: Path, config: FabricConfig, total_txs: int = 160, distinct_keys: int = 64
) -> HeightRecord:
    """The KV workload's fault-free run, recorded at every height."""
    with FabricNetwork(path, config=config) as network:
        network.install(KeyValueChaincode())
        record = HeightRecord(network)
        submit_kv_puts(network.gateway("writer"), total_txs, distinct_keys)
    return record


@dataclass
class CrashOutcome:
    """What the workload managed before the fault fired."""

    fired: Optional[str]
    acked_tx_ids: Set[str]


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
    acked = acked_tx_ids(network)
    try:
        with active_plan(plan):
            submit_kv_puts(network.gateway("writer"), total_txs, distinct_keys)
    except SimulatedCrashError:
        pass
    finally:
        fs.kill(power_loss=power_loss)
    return CrashOutcome(fired=plan.fired, acked_tx_ids=acked)


def reopen_and_verify(
    path: Path, config: FabricConfig, acked: Set[str], reference: HeightRecord
) -> int:
    """Recovery must yield a self-consistent ledger holding every
    acknowledged transaction, equal to the fault-free ``reference`` at
    the height it recovered to.  Returns that height."""
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
        height = ledger.height
        summary, expected = ledger_summary(network), reference.at(height)
        differ = [field for field in LEDGER_FIELDS if summary[field] != expected[field]]
        assert not differ, f"recovered at height {height}, differs from the reference in {differ}"
    finally:
        network.close()
    doctor = run_doctor(path, config=config)
    assert doctor.ok, doctor.render()
    return height


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
