"""Tests for ``repro doctor``: the post-crash consistency checker."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.fabric.chaincode import KeyValueChaincode
from repro.fabric.network import FabricNetwork
from repro.faults.doctor import detect_backend, run_doctor
from repro.faults.manifest import RunManifest
from repro.temporal.chaincodes import M1IndexChaincode
from tests.faults.harness import lsm_config


def build_ledger_dir(path, txs: int = 120, distinct_keys: int = 64):
    """A closed, healthy LSM ledger directory with WAL + SSTables on disk."""
    config = lsm_config()
    network = FabricNetwork(path, config=config)
    network.install(KeyValueChaincode())
    gateway = network.gateway("writer")
    for i in range(txs):
        gateway.submit_transaction(
            "kv", "put", [f"k{i % distinct_keys}", i], timestamp=i + 1
        )
    gateway.flush()
    network.close()
    return config


def codes(report):
    return {finding.code for finding in report.findings}


def test_healthy_directory_is_consistent(tmp_path):
    config = build_ledger_dir(tmp_path / "net")
    report = run_doctor(tmp_path / "net", config=config)
    assert report.ok
    assert report.backend == "lsm"
    assert report.height > 0
    assert report.sstables_checked > 0
    assert "consistent" in report.render()


def test_detect_backend(tmp_path):
    build_ledger_dir(tmp_path / "lsm-net")
    assert detect_backend(tmp_path / "lsm-net") == "lsm"
    assert detect_backend(tmp_path / "empty") == "memory"


def test_corrupt_sstable_is_flagged(tmp_path):
    config = build_ledger_dir(tmp_path / "net")
    tables = sorted((tmp_path / "net" / "statedb").glob("sst-*.sst"))
    assert tables, "workload should have flushed at least one SSTable"
    raw = bytearray(tables[0].read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    tables[0].write_bytes(bytes(raw))
    report = run_doctor(tmp_path / "net", config=config)
    assert not report.ok
    assert "sstable-corrupt" in codes(report)


def test_torn_wal_tail_is_tolerated(tmp_path):
    config = build_ledger_dir(tmp_path / "net")
    wal = tmp_path / "net" / "statedb" / "wal.log"
    with wal.open("ab") as handle:
        handle.write(b"\x40\x00\x00")  # half a record header
    report = run_doctor(tmp_path / "net", config=config)
    assert report.ok, report.render()


def test_mid_wal_corruption_is_flagged(tmp_path):
    # A clean close truncates the WAL, so kill between the WAL sync and
    # the SSTable write: the full memtable's records are on disk.
    from repro.faults import FaultPlan
    from repro.faults.crashpoints import LSM_PRE_SSTABLE
    from tests.faults.harness import run_kv_workload_until_crash

    config = lsm_config()
    plan = FaultPlan(seed=31).crash_at(LSM_PRE_SSTABLE)
    run_kv_workload_until_crash(tmp_path / "net", config, plan)
    assert plan.fired == LSM_PRE_SSTABLE

    wal = tmp_path / "net" / "statedb" / "wal.log"
    raw = bytearray(wal.read_bytes())
    assert len(raw) > 64, "WAL should hold the synced memtable records"
    raw[10] ^= 0xFF  # inside the first record, with more records after it
    wal.write_bytes(bytes(raw))
    report = run_doctor(tmp_path / "net", config=config)
    assert not report.ok
    assert "wal-corrupt" in codes(report)


def test_torn_index_tail_is_repaired(tmp_path):
    config = build_ledger_dir(tmp_path / "net")
    index = tmp_path / "net" / "ledger" / "index" / "blocks.idx"
    index.write_bytes(index.read_bytes()[:-5])
    report = run_doctor(tmp_path / "net", config=config)
    assert report.ok, report.render()  # reconciliation rebuilds the tail
    assert report.height > 0


def test_pre_frame_chain_is_reported_by_format_name(tmp_path):
    """A ledger whose block records hold an older payload -- the whole-
    block value, or the per-transaction 0xF1 frame -- will not open; the
    doctor says why instead of calling it corruption."""
    from repro.common.codec import get_codec
    from repro.fabric.block import GENESIS_PREVIOUS_HASH, Block, BlockHeader
    from repro.fabric.blockstore import BlockStore
    from tests.helpers import per_transaction_frame

    codec = get_codec("json")
    genesis = Block(BlockHeader(0, GENESIS_PREVIOUS_HASH, Block.compute_data_hash([])), [])
    old_formats = {
        "whole-block": (codec.encode(genesis.to_dict()), "written before the framed format"),
        "per-transaction": (per_transaction_frame(genesis, codec), "per-transaction frame (0xF1"),
    }
    for name, (payload, named) in old_formats.items():
        store = BlockStore(tmp_path / name / "ledger")
        store._index.append(store._files.append(payload))
        store.close()
        report = run_doctor(tmp_path / name)
        assert not report.ok
        assert "recovery-failed" in codes(report)
        assert named in report.render()


def test_unfinished_manifest_is_reported(tmp_path):
    config = build_ledger_dir(tmp_path / "net")
    manifest = tmp_path / "m1-run.json"
    RunManifest(manifest).save({"t1": 0, "t2": 500, "u": 50, "completed_keys": []})
    report = run_doctor(tmp_path / "net", config=config, manifest_path=manifest)
    assert report.ok  # resumable, not fatal
    (finding,) = [f for f in report.findings if f.code == "m1-run-in-progress"]
    assert "(0, 500] u=50" in finding.detail  # the range to rerun


@pytest.mark.parametrize("content", ["{not json", "{}", '{"t1": 0, "t2": 500}'])
def test_unreadable_manifest_is_an_error_not_resumable(tmp_path, content):
    """A manifest ``M1Indexer.run`` would refuse is damage, not a run to
    resume."""
    config = build_ledger_dir(tmp_path / "net")
    manifest = tmp_path / "m1-run.json"
    manifest.write_text(content)
    report = run_doctor(tmp_path / "net", config=config, manifest_path=manifest)
    assert not report.ok
    assert "m1-manifest-corrupt" in codes(report)
    assert "m1-run-in-progress" not in codes(report)


def record_m1_runs(path, runs):
    """A closed ledger whose M1 run list is ``runs`` (``(t1, t2, u)``)."""
    config = lsm_config()
    with FabricNetwork(path, config=config) as network:
        network.install(M1IndexChaincode())
        gateway = network.gateway("indexer")
        for t1, t2, u in runs:
            gateway.submit_transaction(
                M1IndexChaincode.name, "record_run", [{"t1": t1, "t2": t2, "u": u}]
            )
            # One block per run: each record_run reads the list it appends to.
            gateway.flush()
    return config


def test_m1_index_gaps_are_a_warning_listing_every_stretch(tmp_path):
    # Recorded out of order, starting late, with a hole in the middle.
    config = record_m1_runs(
        tmp_path / "net", [(2_500, 3_000, 200), (1_000, 2_000, 200)]
    )
    report = run_doctor(tmp_path / "net", config=config)
    assert report.ok  # M1 refuses the windows involved; nothing is corrupt
    (gap,) = [f for f in report.findings if f.code == "m1-index-gap"]
    assert gap.severity == "warning"
    assert "(0-1000], (2000-2500] of (0-3000]" in gap.detail


def test_contiguous_m1_runs_report_no_gap(tmp_path):
    # Abutting runs with different u, the later one recorded first.
    config = record_m1_runs(
        tmp_path / "net", [(1_000, 3_000, 70), (0, 1_000, 200)]
    )
    report = run_doctor(tmp_path / "net", config=config)
    assert report.ok
    assert "m1-index-gap" not in codes(report)


def test_missing_directory_is_an_error_not_scaffolded(tmp_path):
    report = run_doctor(tmp_path / "nope")
    assert not report.ok
    assert "no-such-directory" in codes(report)
    assert not (tmp_path / "nope").exists()  # diagnostics create nothing


def test_cli_doctor_exit_codes(tmp_path, capsys):
    build_ledger_dir(tmp_path / "net")
    assert main(["doctor", str(tmp_path / "net")]) == 0
    assert "consistent" in capsys.readouterr().out

    tables = sorted((tmp_path / "net" / "statedb").glob("sst-*.sst"))
    raw = bytearray(tables[0].read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    tables[0].write_bytes(bytes(raw))
    assert main(["doctor", str(tmp_path / "net")]) == 1
    assert "INCONSISTENT" in capsys.readouterr().out
