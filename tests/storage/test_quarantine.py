"""Scrub-and-quarantine: CRC-failing SSTables are isolated, not served.

A table that fails its checksum -- bit rot, a torn flush, an injected
flip -- must never satisfy a read and never be silently dropped either:
it is moved to ``quarantine/`` and reads raise the typed
:class:`~repro.common.errors.QuarantinedError` until a layer that can
rebuild the range (the ledger replays the chain) acknowledges the loss.
"""

from __future__ import annotations

from contextlib import closing

import pytest

from repro.common.errors import QuarantinedError
from repro.fabric.network import FabricNetwork
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

        store = LSMStore(root, memtable_limit=1000)
        try:
            assert store.quarantined_tables() == (victim.name,)
            assert (root / QUARANTINE_DIR / victim.name).exists()
            assert not victim.exists()
            with pytest.raises(QuarantinedError) as excinfo:
                store.get(b"a000")
            assert excinfo.value.tables == (victim.name,)
            with pytest.raises(QuarantinedError):
                list(store.scan())
            with pytest.raises(QuarantinedError):
                store.scan()  # at the call, not at the first next()
        finally:
            store.close()

    def test_acknowledge_resumes_with_surviving_tables(self, tmp_path):
        root = tmp_path / "db"
        with closing(LSMStore(root, memtable_limit=1000)) as store:
            fill_and_flush(store, b"a")
            fill_and_flush(store, b"b")
        victim = sst_files(root)[0]
        corrupt(victim)

        store = LSMStore(root, memtable_limit=1000)
        try:
            assert store.acknowledge_quarantine() == (victim.name,)
            # The loss is accepted: the surviving table still answers,
            # the quarantined range is simply gone.
            assert store.get(b"b000") == b"value-b"
            assert store.get(b"a000") is None
            assert store.quarantined_tables() == ()
        finally:
            store.close()

    def test_writes_are_not_blocked_by_quarantine(self, tmp_path):
        # Ingest must be able to continue (the rebuild path writes the
        # lost range back); only reads are blocked until acknowledged.
        root = tmp_path / "db"
        with closing(LSMStore(root, memtable_limit=1000)) as store:
            fill_and_flush(store, b"a")
        corrupt(sst_files(root)[0])
        store = LSMStore(root, memtable_limit=1000)
        try:
            store.put(b"new", b"value")
            store.flush()
            store.acknowledge_quarantine()
            assert store.get(b"new") == b"value"
        finally:
            store.close()


class TestScrub:
    def test_scrub_clean_store_finds_nothing(self, tmp_path):
        with closing(LSMStore(tmp_path / "db", memtable_limit=1000)) as store:
            fill_and_flush(store, b"a")
            assert store.scrub() == ()
            assert store.get(b"a000") == b"value-a"

    def test_scrub_detects_corruption_behind_an_open_store(self, tmp_path):
        root = tmp_path / "db"
        store = LSMStore(root, memtable_limit=1000)
        try:
            fill_and_flush(store, b"a")
            fill_and_flush(store, b"b")
            victim = sst_files(root)[1]
            corrupt(victim)
            assert store.scrub() == (victim.name,)
            assert (root / QUARANTINE_DIR / victim.name).exists()
            with pytest.raises(QuarantinedError):
                store.get(b"a000")
            # Same contract as corruption found at open: acknowledge,
            # then serve what survives.
            assert store.acknowledge_quarantine() == (victim.name,)
            assert store.get(b"a000") == b"value-a"
            assert store.get(b"b000") is None
        finally:
            store.close()


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
        assert network.ledger.state_db.quarantined_tables() == ()  # acknowledged
        assert network.ledger.state_fingerprint() == fingerprint
        assert audit(network.ledger).ok
