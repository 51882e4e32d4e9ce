"""A damaged state-db is set aside at open and replayed from the chain.

A table the open cannot vouch for -- one failing its checksum (bit rot,
a torn flush, an injected flip), a listed one that is missing, every
table when ``MANIFEST.json`` is missing or unreadable -- is never served
from and never silently dropped: it is moved to ``quarantine/`` and
named in the store's ``tables_set_aside``.  The store serves what
loaded; the ledger, which owns it, rebuilds every state by replaying the
chain from block 0 in the same open.
"""

from __future__ import annotations

import shutil
from contextlib import closing

import pytest

from repro.common.config import BlockCuttingConfig, FabricConfig, StateDbConfig
from repro.common.errors import SimulatedCrashError
from repro.fabric.network import FabricNetwork
from repro.faults import FaultPlan, FaultyFS
from repro.faults.doctor import run_doctor
from repro.storage.kv.lsm import QUARANTINE_DIR, LSMStore
from tests.faults.harness import lsm_config, submit_kv_puts
from tests.helpers import KeyValueChaincode, audit


def fill_and_flush(store: LSMStore, prefix: bytes, n: int = 8) -> None:
    for index in range(n):
        store.put(prefix + b"%03d" % index, b"value-" + prefix)
    store.flush()


def corrupt(path) -> None:
    """Flip one payload byte in place (the CRC must catch this)."""
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))


def sst_files(root):
    return sorted((root).glob("sst-*.sst"))


class TestQuarantineAtOpen:
    def test_corrupt_table_is_quarantined_not_served(self, tmp_path):
        root = tmp_path / "db"
        with closing(LSMStore(root, memtable_limit=1000)) as store:
            fill_and_flush(store, b"a")
            fill_and_flush(store, b"b")
        victim = sst_files(root)[0]
        corrupt(victim)

        with closing(LSMStore(root, memtable_limit=1000)) as store:
            assert store.tables_set_aside == (victim.name,)
            assert (root / QUARANTINE_DIR / victim.name).exists()
            assert not victim.exists()
            # The survivor answers; the set-aside table's keys are gone
            # from this store until its owner writes them back.
            assert store.get(b"b000") == b"value-b"
            assert store.get(b"a000") is None
            assert [key for key, _ in store.scan()] == [b"b%03d" % i for i in range(8)]


def test_a_table_rotting_after_its_wal_is_gone_is_rebuilt_from_the_chain(tmp_path):
    """Rot in a table whose WAL was truncated long ago: what it held lives
    only in the chain, so recovery must replay the chain from block 0,
    not from the savepoint a newer table still holds."""
    config = lsm_config(memtable_limit=8)
    with closing(FabricNetwork(tmp_path / "net", config=config)) as network:
        network.install(KeyValueChaincode())
        submit_kv_puts(network.gateway("writer"), total_txs=48, distinct_keys=48)
        fingerprint = network.ledger.state_fingerprint()
    tables = sst_files(tmp_path / "net" / "statedb")
    assert len(tables) > 1
    corrupt(tables[0])
    with closing(FabricNetwork(tmp_path / "net", config=config)) as network:
        assert network.ledger.state_db.tables_set_aside == (tables[0].name,)
        assert network.ledger.state_fingerprint() == fingerprint
        assert audit(network.ledger).ok


def test_an_unreadable_manifest_sets_every_table_aside(tmp_path):
    """No manifest vouches for any table, so none is loaded: an orphaned
    compaction victim holding a since-deleted key must not bring it back
    (a glob of the directory would)."""
    path, statedb = tmp_path / "net", tmp_path / "net" / "statedb"
    config = FabricConfig(
        block_cutting=BlockCuttingConfig(max_message_count=1),
        state_db=StateDbConfig(backend="lsm", memtable_limit=4, compaction_trigger=3),
    )
    with closing(FabricNetwork(path, config=config)) as network:
        network.install(KeyValueChaincode())
        gateway = network.gateway("writer")
        timestamp = iter(range(1, 1_000))

        def put_until(done) -> None:
            for filler in range(100):
                if done():
                    return
                gateway.submit_transaction("kv", "put", [f"f{filler}", filler], timestamp=next(timestamp))
            raise AssertionError("the store never reached the state the probe needs")

        gateway.submit_transaction("kv", "put", ["a", 1], timestamp=next(timestamp))
        put_until(lambda: sst_files(statedb))
        (first,) = sst_files(statedb)
        victim = shutil.copy(first, tmp_path / first.name)
        gateway.submit_transaction("kv", "delete", ["a"], timestamp=next(timestamp))
        put_until(lambda: not first.exists())
        fingerprint = network.ledger.state_fingerprint()
    shutil.copy(victim, first)
    (statedb / "MANIFEST.json").write_text("{not json")

    with closing(FabricNetwork(path, config=config)) as network:
        assert network.ledger.get_state("a") is None
        assert network.ledger.state_fingerprint() == fingerprint
        assert first.name in network.ledger.state_db.tables_set_aside
    assert (statedb / QUARANTINE_DIR / first.name).exists()
    doctor = run_doctor(path, config=config)
    assert doctor.ok, doctor.render()


def test_a_table_is_set_aside_through_the_filesystem_seam(tmp_path):
    """The move into ``quarantine/`` is a rename through the store's
    filesystem, so a crash scheduled on it stops it with the table still
    in place, and the next open sets it aside again."""
    path, config = tmp_path / "net", lsm_config(memtable_limit=8)
    with closing(FabricNetwork(path, config=config)) as network:
        network.install(KeyValueChaincode())
        submit_kv_puts(network.gateway("writer"), total_txs=24, distinct_keys=24)
        fingerprint = network.ledger.state_fingerprint()
    victim = sst_files(path / "statedb")[0]
    corrupt(victim)

    plan = FaultPlan().crash_on_replace("*")
    fs = FaultyFS(plan)
    with pytest.raises(SimulatedCrashError):
        FabricNetwork(path, config=config, fs=fs)
    fs.kill()
    assert plan.fired == f"replace:{victim.name}"
    assert victim.exists()
    assert not (path / "statedb" / QUARANTINE_DIR / victim.name).exists()

    with closing(FabricNetwork(path, config=config)) as network:
        assert network.ledger.state_db.tables_set_aside == (victim.name,)
        assert network.ledger.state_fingerprint() == fingerprint
        assert audit(network.ledger).ok
