"""Tests for ``repro doctor``: the post-crash consistency checker."""

from __future__ import annotations

from contextlib import closing

import pytest

from repro.cli import main
from repro.fabric.network import FabricNetwork
from repro.faults.doctor import detect_backend, run_doctor
from repro.temporal.chaincodes import M1IndexChaincode
from tests.faults.harness import lsm_config
from tests.helpers import KeyValueChaincode


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


def ledger_with_a_corrupt_wal(path):
    """A crashed LSM ledger whose WAL fails its checksum mid-log."""
    # A clean close truncates the WAL, so kill between the WAL sync and
    # the SSTable write: the full memtable's records are on disk.
    from repro.faults import FaultPlan
    from repro.faults.crashpoints import LSM_PRE_SSTABLE
    from tests.faults.harness import run_kv_workload_until_crash

    config = lsm_config()
    plan = FaultPlan(seed=31).crash_at(LSM_PRE_SSTABLE)
    run_kv_workload_until_crash(path, config, plan)
    assert plan.fired == LSM_PRE_SSTABLE

    wal = path / "statedb" / "wal.log"
    raw = bytearray(wal.read_bytes())
    assert len(raw) > 64, "WAL should hold the synced memtable records"
    raw[10] ^= 0xFF  # inside the first record, with more records after it
    wal.write_bytes(bytes(raw))
    return config


def test_mid_wal_corruption_is_flagged(tmp_path):
    config = ledger_with_a_corrupt_wal(tmp_path / "net")
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
    block value, the per-transaction 0xF1 frame, or the frame under the
    removed ``binary`` codec -- will not open; the doctor says why
    instead of calling it corruption, and counts the chain it cannot
    open without writing to it."""
    from repro.common.codec import JsonCodec
    from repro.fabric.block import GENESIS_PREVIOUS_HASH, Block, BlockHeader
    from repro.fabric.blockstore import BlockStore
    from tests.helpers import BINARY_GOLDEN_PAYLOAD, per_transaction_frame
    from tests.test_stored_bytes import directory_digest

    codec = JsonCodec()
    genesis = Block(BlockHeader(0, GENESIS_PREVIOUS_HASH, Block.compute_data_hash([])), [])
    old_formats = {
        "whole-block": (codec.encode(genesis.to_dict()), "written before the framed format"),
        "per-transaction": (per_transaction_frame(genesis, codec), "per-transaction frame (0xF1"),
        "binary-codec": (BINARY_GOLDEN_PAYLOAD, "8 segments need 333 bytes"),
    }
    for name, (payload, named) in old_formats.items():
        store = BlockStore(tmp_path / name / "ledger")
        store._index.append(store._files.append(payload))
        store.close()
        before = directory_digest(tmp_path / name)
        report = run_doctor(tmp_path / name)
        assert not report.ok
        assert "recovery-failed" in codes(report)
        assert named in report.render()
        assert report.height == 1
        assert directory_digest(tmp_path / name) == before


def ledger_with_an_undecodable_block(path, monkeypatch):
    """A ledger holding a value spelled as the codec's bytes tag, as a
    writer from before endorsement refused them could store."""
    from repro.common.codec import BYTES_TAG
    from repro.fabric import block as block_module
    from tests.helpers import fabric_config

    config = fabric_config(max_message_count=1)
    monkeypatch.setattr(block_module, "_holds_bytes_tag", lambda value: False)
    with closing(FabricNetwork(path, config=config)) as network:
        network.install(KeyValueChaincode())
        gateway = network.gateway("writer")
        for timestamp, (key, value) in enumerate(
            [("a", 1), ("b", 2), ("bad", {BYTES_TAG: 5}), ("z", 3)], start=1
        ):
            # "bad" is the second write of its transaction, in key order.
            gateway.submit_transaction(
                "kv", "put_many", [["a0", 0], [key, value]], timestamp=timestamp
            )
    monkeypatch.undo()
    return config


def test_a_block_that_will_not_decode_is_named(tmp_path, monkeypatch):
    """A ledger holding an undecodable block will not open.  The doctor
    names the block, transaction and key whose decode raises, and
    changes nothing on disk."""
    from tests.test_stored_bytes import directory_digest

    path = tmp_path / "net"
    ledger_with_an_undecodable_block(path, monkeypatch)
    before = directory_digest(path)
    report = run_doctor(path)
    assert not report.ok
    (finding,) = [f for f in report.findings if f.code == "recovery-failed"]
    assert "a bytes tag holds a value of type int" in finding.detail
    assert "(block 2, transaction 0, key 'bad' does not decode)" in finding.detail
    assert report.height == 4
    assert directory_digest(path) == before


@pytest.mark.parametrize("damage", ["undecodable-block", "corrupt-wal"])
def test_a_ledger_that_will_not_open_closes_every_handle(tmp_path, monkeypatch, damage):
    """What the doctor's open reaches before it fails is closed, and the
    failure it reports is the one the open raised."""
    from repro.common.errors import ReproError
    from repro.fabric.ledger import Ledger
    from tests.helpers import HandleRecordingFS

    path = tmp_path / "net"
    if damage == "corrupt-wal":
        config = ledger_with_a_corrupt_wal(path)
    else:
        config = ledger_with_an_undecodable_block(path, monkeypatch)
    fs = HandleRecordingFS()
    with pytest.raises(ReproError) as failed:
        Ledger(path, config=config, fs=fs)
    assert fs.all_closed()
    assert f"ledger will not open: {failed.value}" in run_doctor(path, config=config).render()


def test_interrupted_m1_run_is_reported_until_rerun(tmp_path):
    """The doctor reads an interrupted indexing run off the ledger alone:
    bundles in history-db no recorded run covers, named by their span."""
    from repro.common.errors import SimulatedCrashError
    from repro.faults import FaultPlan, FaultyFS, active_plan
    from repro.faults.crashpoints import M1_POST_KEY
    from repro.temporal.chaincodes import SupplyChainChaincode
    from repro.temporal.m1 import M1Indexer
    from repro.workload.ingest import ingest
    from tests.helpers import SMALL_CONFIG, small_workload

    config = lsm_config()
    plan = FaultPlan(seed=25).crash_at(M1_POST_KEY)
    fs = FaultyFS(plan)
    network = FabricNetwork(tmp_path / "net", config=config, fs=fs)
    network.install(SupplyChainChaincode())
    network.install(M1IndexChaincode())
    ingest(network.gateway("ingestor"), small_workload().events, SupplyChainChaincode.name)
    indexer = M1Indexer(network.ledger, network.gateway("indexer"), ["S", "C"])
    with pytest.raises(SimulatedCrashError), active_plan(plan):
        indexer.run(0, SMALL_CONFIG.t_max, 100)
    fs.kill()

    report = run_doctor(tmp_path / "net", config=config)
    assert report.ok  # resumable, not fatal
    (finding,) = [f for f in report.findings if f.code == "m1-run-in-progress"]
    assert finding.severity == "warning"
    assert "holds 8 M1 bundles over (0-900] that no recorded indexing run covers" in finding.detail

    with closing(FabricNetwork(tmp_path / "net", config=config)) as network:
        network.install(SupplyChainChaincode())
        network.install(M1IndexChaincode())
        M1Indexer(network.ledger, network.gateway("indexer"), ["S", "C"]).run(
            0, SMALL_CONFIG.t_max, 100
        )
    report = run_doctor(tmp_path / "net", config=config)
    assert report.findings == [], report.render()


def test_m2_interval_keys_are_not_m1_bundles(tmp_path):
    """An M2 ledger keeps its ``(k, θ)`` keys in state-db and history-db
    by design; none of them is an interrupted M1 run."""
    from tests.helpers import build_m2_network, small_workload

    build_m2_network(tmp_path / "net", small_workload(), 100).close()
    report = run_doctor(tmp_path / "net")
    assert report.findings == [], report.render()


def record_m1_runs(path, runs):
    """A closed ledger whose M1 run list is ``runs`` (``(t1, t2, u)``)."""
    config = lsm_config()
    with closing(FabricNetwork(path, config=config)) as network:
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
