"""The kill-point sweep: crash at every named point, recover, verify.

This is the subsystem's headline guarantee: no matter where in the write
path the process dies, reopening the directory yields a consistent
ledger that lost no acknowledged transaction, equals a fault-free run of
the same workload at the height it recovered to, and keeps working.
"""

from __future__ import annotations

import pytest

from repro.faults import FaultPlan
from repro.faults.crashpoints import COMMIT_CRASH_POINTS, LEDGER_POST_COMMIT
from tests.faults.harness import (
    continue_workload,
    kv_reference,
    lsm_config,
    reopen_and_verify,
    run_kv_workload_until_crash,
)

#: ``(codec, cache_blocks)``: every stored configuration of the block
#: store (``tests/test_config_matrix.py`` holds the same cells, under both
#: backends, to one result without a crash).
STORAGE_CELLS = [(codec, cache) for codec in ("json", "binary") for cache in (0, 16)]


def _cells(points=(None,)):
    """``pytest.param``s of ``(point, codec, cache_blocks)`` for every
    crash point crossed with every storage cell; ``(codec, cache_blocks)``
    when there are no points."""
    params = []
    for point in points:
        for codec, cache_blocks in STORAGE_CELLS:
            # The default cell keeps the bare id the sweep had before it
            # ran over configurations.
            cell = "" if (codec, cache_blocks) == ("json", 0) else f"{codec}-cache{cache_blocks}"
            ident = "-".join(part for part in (point, cell) if part) or "default"
            values = (codec, cache_blocks) if point is None else (point, codec, cache_blocks)
            params.append(pytest.param(*values, id=ident))
    return params


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """``(codec, cache_blocks) -> HeightRecord``: the fault-free KV
    workload under each storage cell, recorded at every height."""
    return {
        (codec, cache_blocks): kv_reference(
            tmp_path_factory.mktemp(f"reference-{codec}-{cache_blocks}"),
            lsm_config(codec=codec, cache_blocks=cache_blocks),
        )
        for codec, cache_blocks in STORAGE_CELLS
    }


def _recovers(path, config, outcome, reference) -> None:
    reopen_and_verify(
        path,
        config,
        outcome.acked_tx_ids,
        reference[(config.block_store.codec, config.block_store.cache_blocks)],
    )
    continue_workload(path, config)


@pytest.mark.parametrize("point, codec, cache_blocks", _cells(COMMIT_CRASH_POINTS))
def test_kill_at_every_commit_point(tmp_path, reference, point, codec, cache_blocks):
    """Every commit point under every stored configuration: the block a
    crash half-wrote or half-indexed recovers whatever its codec, and
    whether or not a block cache held it."""
    config = lsm_config(codec=codec, cache_blocks=cache_blocks)
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


@pytest.mark.parametrize("codec, cache_blocks", _cells())
def test_torn_blockfile_write_recovers(tmp_path, reference, codec, cache_blocks):
    """A kill mid-write to a block file leaves a torn record; recovery
    truncates it and the chain stays consistent, under every stored
    configuration."""
    config = lsm_config(codec=codec, cache_blocks=cache_blocks)
    plan = FaultPlan(seed=7).crash_on_write("blockfile_*", nth=30, torn=True)
    outcome = run_kv_workload_until_crash(tmp_path / "net", config, plan)
    assert outcome.fired is not None and outcome.fired.startswith("write:")
    _recovers(tmp_path / "net", config, outcome, reference)


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
