"""The kill-point sweep: crash at every named point, recover, verify.

This is the subsystem's headline guarantee: no matter where in the write
path the process dies, reopening the directory yields a consistent
ledger that lost no acknowledged transaction, equals a fault-free run of
the same workload at the height it recovered to, and keeps working.
"""

from __future__ import annotations

from contextlib import closing

import pytest

from repro.fabric.network import FabricNetwork
from repro.faults import FaultPlan
from repro.faults.crashpoints import COMMIT_CRASH_POINTS, LEDGER_POST_COMMIT
from repro.faults.doctor import run_doctor
from tests.faults.harness import (
    continue_workload,
    kv_reference,
    lsm_config,
    reopen_and_verify,
    run_kv_workload_until_crash,
)
from tests.helpers import KeyValueChaincode

@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """The fault-free KV workload, recorded at every height."""
    return kv_reference(tmp_path_factory.mktemp("reference"), lsm_config())


def _recovers(path, config, outcome, reference) -> None:
    reopen_and_verify(path, config, outcome.acked_tx_ids, reference)
    continue_workload(path, config)


@pytest.mark.parametrize("point", COMMIT_CRASH_POINTS)
def test_kill_at_every_commit_point(tmp_path, reference, point):
    """Every commit point: the block a crash half-wrote or half-indexed
    recovers."""
    config = lsm_config()
    plan = FaultPlan(seed=3).crash_at(point)
    outcome = run_kv_workload_until_crash(tmp_path / "net", config, plan)
    assert outcome.fired == point, f"workload never reached {point}"
    _recovers(tmp_path / "net", config, outcome, reference)


@pytest.mark.parametrize("point", COMMIT_CRASH_POINTS)
def test_kill_later_occurrence(tmp_path, reference, point):
    """Crashing on a later arrival exercises recovery of a longer chain
    (compactions done, WAL truncated at least once)."""
    config = lsm_config()
    plan = FaultPlan(seed=11).crash_at(point, occurrence=5)
    outcome = run_kv_workload_until_crash(tmp_path / "net", config, plan)
    assert outcome.fired == point, f"workload reached {point} fewer than 5 times"
    _recovers(tmp_path / "net", config, outcome, reference)


def test_power_loss_with_fsync_durability(tmp_path, reference):
    """With ``durability='fsync'`` even a power loss (everything past the
    last fsync gone) preserves acknowledged transactions."""
    config = lsm_config(durability="fsync")
    plan = FaultPlan(seed=5).crash_at(LEDGER_POST_COMMIT, occurrence=20)
    outcome = run_kv_workload_until_crash(
        tmp_path / "net", config, plan, power_loss=True
    )
    assert outcome.fired == LEDGER_POST_COMMIT
    assert outcome.acked_tx_ids
    _recovers(tmp_path / "net", config, outcome, reference)


def test_torn_blockfile_write_recovers(tmp_path, reference):
    """A kill mid-write to a block file leaves a torn record; recovery
    truncates it and the chain stays consistent."""
    config = lsm_config()
    plan = FaultPlan(seed=7).crash_on_write("blockfile_*", nth=30, torn=True)
    outcome = run_kv_workload_until_crash(tmp_path / "net", config, plan)
    assert outcome.fired is not None and outcome.fired.startswith("write:")
    _recovers(tmp_path / "net", config, outcome, reference)


def test_a_torn_blockfile_tail_is_cut_before_the_next_append(tmp_path):
    """Blocks appended after torn bytes must stay reachable by a full
    scan of the files, the one a lost block index is rebuilt from."""
    config, path = lsm_config(), tmp_path / "net"
    with closing(FabricNetwork(path, config=config)) as network:
        network.install(KeyValueChaincode())
        gateway = network.gateway("writer")
        for i in range(3):
            gateway.submit_transaction("kv", "put", [f"k{i}", i], timestamp=i + 1)
            gateway.flush()
    *_, tail = sorted((path / "ledger" / "chains").glob("blockfile_*"))
    with open(tail, "ab") as handle:
        handle.write(b"\x05\x00")  # a record header cut short
    with closing(FabricNetwork(path, config=config)) as network:
        network.install(KeyValueChaincode())
        gateway = network.gateway("writer")
        gateway.submit_transaction("kv", "put", ["k9", 9], timestamp=9)
        gateway.flush()
    (path / "ledger" / "index" / "blocks.idx").unlink()
    with closing(FabricNetwork(path, config=config)) as network:
        assert network.ledger.height == 4
        assert network.ledger.get_state("k9") == 9
    doctor = run_doctor(path, config=config)
    assert doctor.ok, doctor.render()


def test_crash_before_sstable_rename_recovers(tmp_path, reference):
    """A kill just before the SSTable's atomic rename leaves only a stray
    ``.tmp``; the WAL still holds every record."""
    config = lsm_config()
    plan = FaultPlan(seed=9).crash_on_replace("sst-*.sst")
    outcome = run_kv_workload_until_crash(tmp_path / "net", config, plan)
    assert outcome.fired is not None and outcome.fired.startswith("replace:")
    _recovers(tmp_path / "net", config, outcome, reference)


def test_torn_wal_write_recovers(tmp_path, reference):
    """A kill mid-WAL-append leaves a torn record that replay drops."""
    config = lsm_config()
    plan = FaultPlan(seed=13).crash_on_write("wal.log", nth=40, torn=True)
    outcome = run_kv_workload_until_crash(tmp_path / "net", config, plan)
    assert outcome.fired is not None and outcome.fired.startswith("write:")
    _recovers(tmp_path / "net", config, outcome, reference)


# -- power loss: a file keeps only its fsynced bytes ------------------------


@pytest.fixture(scope="module")
def fsync_reference(tmp_path_factory):
    """The fault-free KV workload under ``durability='fsync'``."""
    return kv_reference(tmp_path_factory.mktemp("fsync-reference"), lsm_config(durability="fsync"))


def _power_loss_recovers(path, plan, reference):
    config = lsm_config(durability="fsync")
    outcome = run_kv_workload_until_crash(path, config, plan, power_loss=True)
    _recovers(path, config, outcome, reference)
    return outcome.fired


@pytest.mark.parametrize("occurrence", [1, 5])
@pytest.mark.parametrize("point", COMMIT_CRASH_POINTS)
def test_power_loss_at_every_commit_point(tmp_path, fsync_reference, point, occurrence):
    """Under ``durability='fsync'`` a power loss at any commit point --
    every unsynced byte gone, closed files included -- loses no
    acknowledged transaction."""
    plan = FaultPlan(seed=17).crash_at(point, occurrence=occurrence)
    assert _power_loss_recovers(tmp_path / "net", plan, fsync_reference) == point


@pytest.mark.parametrize("nth", [2, 4])
@pytest.mark.parametrize("renamed", ["sst-*.sst", "MANIFEST.json"])
def test_power_loss_at_a_rename(tmp_path, fsync_reference, renamed, nth):
    """A power loss just before a table or manifest rename.  (The first
    manifest rename is the store's open, before the workload runs.)"""
    plan = FaultPlan(seed=19).crash_on_replace(renamed, nth=nth)
    fired = _power_loss_recovers(tmp_path / "net", plan, fsync_reference)
    assert fired is not None and fired.startswith("replace:")
