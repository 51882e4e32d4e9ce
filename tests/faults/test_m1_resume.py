"""Crash/resume sweep for the M1 indexing process.

The indexer checkpoints per-key progress to an atomic run manifest.  A
crash at any M1 point must leave the ledger in a state from which
rerunning the *same* range converges to exactly the index a clean run
would have produced -- verified by comparing M1 query results to TQF
(which always scans the raw chain) key by key.
"""

from __future__ import annotations

import pytest

from repro.common.errors import IndexingError, SimulatedCrashError
from repro.fabric.network import FabricNetwork
from repro.faults import FaultPlan, FaultyFS, active_plan
from repro.faults.crashpoints import M1_CRASH_POINTS
from repro.faults.doctor import run_doctor
from repro.temporal.chaincodes import M1IndexChaincode, SupplyChainChaincode
from repro.temporal.intervals import TimeInterval
from repro.temporal.m1 import M1Indexer, M1QueryEngine
from repro.temporal.tqf import TQFEngine
from repro.workload.ingest import ingest
from tests.helpers import SMALL_CONFIG, fabric_config, small_workload

U = 100
T2 = SMALL_CONFIG.t_max
PREFIXES = ["S", "C"]


def ingested_network(path, fs=None) -> FabricNetwork:
    kwargs = {"fs": fs} if fs is not None else {}
    network = FabricNetwork(path, config=fabric_config(), **kwargs)
    network.install(SupplyChainChaincode())
    network.install(M1IndexChaincode())
    ingest(
        network.gateway("ingestor"),
        small_workload().events,
        SupplyChainChaincode.name,
        strategy="me",
    )
    return network


def reopened_network(path) -> FabricNetwork:
    """Reopen the directory as a fresh process would: real filesystem,
    chaincodes reinstalled."""
    network = FabricNetwork(path, config=fabric_config())
    network.install(SupplyChainChaincode())
    network.install(M1IndexChaincode())
    return network


def build_indexer(network, manifest_path) -> M1Indexer:
    return M1Indexer(
        ledger=network.ledger,
        gateway=network.gateway("indexer"),
        key_prefixes=PREFIXES,
        manifest_path=manifest_path,
    )


def assert_m1_matches_tqf(network) -> None:
    """TQF reads the raw chain; M1 reads the index.  They must agree on
    every key over the whole indexed window."""
    tqf = TQFEngine(network.ledger)
    m1 = M1QueryEngine(network.ledger)
    window = TimeInterval(0, T2)
    checked = 0
    for prefix in PREFIXES:
        for key in tqf.list_keys(prefix):
            assert m1.fetch_events(key, window) == tqf.fetch_events(key, window), key
            checked += 1
    assert checked > 0


@pytest.mark.parametrize("point", M1_CRASH_POINTS)
def test_m1_kill_then_resume(tmp_path, point):
    plan = FaultPlan(seed=21).crash_at(point)
    fs = FaultyFS(plan)
    manifest = tmp_path / "m1-run.json"
    network = ingested_network(tmp_path / "net", fs=fs)
    try:
        with active_plan(plan):
            build_indexer(network, manifest).run(0, T2, U)
    except SimulatedCrashError:
        pass
    finally:
        fs.kill()
    assert plan.fired == point, f"indexing run never reached {point}"

    recovered = reopened_network(tmp_path / "net")
    try:
        report = build_indexer(recovered, manifest).run(0, T2, U)
        assert report.run.t1 == 0 and report.run.t2 == T2
        assert not manifest.exists(), "manifest should be cleared after the run"
        assert_m1_matches_tqf(recovered)
        assert run_doctor(tmp_path / "net", config=fabric_config()).ok
    finally:
        recovered.close()


@pytest.mark.parametrize("occurrence", [2, 4])
def test_m1_kill_mid_bundle_later_keys(tmp_path, occurrence):
    """Crashing deeper into the run leaves some keys fully indexed (and
    manifest-checkpointed); resume must not double-bundle them."""
    from repro.faults.crashpoints import M1_MID_BUNDLE

    plan = FaultPlan(seed=22).crash_at(M1_MID_BUNDLE, occurrence=occurrence)
    fs = FaultyFS(plan)
    manifest = tmp_path / "m1-run.json"
    network = ingested_network(tmp_path / "net", fs=fs)
    try:
        with active_plan(plan):
            build_indexer(network, manifest).run(0, T2, U)
    except SimulatedCrashError:
        pass
    finally:
        fs.kill()
    assert plan.fired is not None

    recovered = reopened_network(tmp_path / "net")
    try:
        build_indexer(recovered, manifest).run(0, T2, U)
        assert_m1_matches_tqf(recovered)
        # No bundle may appear twice in history: each index key has
        # exactly one write and one delete.
        history = recovered.ledger.history_db
        from repro.temporal.keys import is_interval_key

        for key in list(history._locations):
            if is_interval_key(key):
                assert len(history.locations_for_key(key)) == 2, key
    finally:
        recovered.close()


def test_resume_with_a_different_u_is_refused(tmp_path):
    """``u`` is part of an unfinished run's identity: keys completed
    before the crash are bundled under the manifest's ``u``, so resuming
    under another ``u`` would record one ``u`` for bundles written under
    two and M1 would silently miss the earlier keys' events."""
    import json

    from repro.faults.crashpoints import M1_POST_KEY

    plan = FaultPlan(seed=23).crash_at(M1_POST_KEY, occurrence=2)
    fs = FaultyFS(plan)
    manifest = tmp_path / "m1-run.json"
    network = ingested_network(tmp_path / "net", fs=fs)
    try:
        with active_plan(plan):
            build_indexer(network, manifest).run(0, T2, U)
    except SimulatedCrashError:
        pass
    finally:
        fs.kill()
    assert plan.fired is not None
    assert json.loads(manifest.read_text())["u"] == U

    recovered = reopened_network(tmp_path / "net")
    try:
        with pytest.raises(IndexingError, match="unfinished"):
            build_indexer(recovered, manifest).run(0, T2, 2 * U)
        assert M1QueryEngine(recovered.ledger).indexing_runs() == []

        # A manifest written before ``u`` was recorded cannot vouch for
        # any ``u``: refused the same way.
        saved = manifest.read_text()
        legacy = json.loads(saved)
        del legacy["u"]
        legacy["planner"] = "fixed"
        manifest.write_text(json.dumps(legacy))
        with pytest.raises(IndexingError, match="unfinished"):
            build_indexer(recovered, manifest).run(0, T2, U)

        manifest.write_text(saved)
        report = build_indexer(recovered, manifest).run(0, T2, U)
        assert report.run.u == U
        assert_m1_matches_tqf(recovered)
    finally:
        recovered.close()


def test_manifest_refuses_mismatched_range(tmp_path):
    network = ingested_network(tmp_path / "net")
    manifest = tmp_path / "m1-run.json"
    plan = FaultPlan(seed=24).crash_at(M1_CRASH_POINTS[0])
    try:
        with active_plan(plan):
            build_indexer(network, manifest).run(0, T2, U)
    except SimulatedCrashError:
        pass
    assert manifest.exists()
    with pytest.raises(IndexingError, match="unfinished"):
        build_indexer(network, manifest).run(0, T2 // 2, U)
    network.close()


def test_clean_run_clears_manifest(tmp_path):
    network = ingested_network(tmp_path / "net")
    manifest = tmp_path / "m1-run.json"
    report = build_indexer(network, manifest).run(0, T2, U)
    assert report.indexes_written > 0
    assert not manifest.exists()
    assert_m1_matches_tqf(network)
    network.close()
