"""Crash/rerun sweep for the M1 indexing process.

The indexer keeps no progress file: the ledger records which bundles and
clears committed.  A crash at any M1 point must leave the ledger in a
state from which rerunning the call converges to exactly the index a
clean run would have produced -- verified by comparing M1 query results
to TQF (which always scans the raw chain) key by key, and by counting
each bundle's history entries.
"""

from __future__ import annotations

import pytest

from repro.common.errors import SimulatedCrashError
from repro.fabric.network import FabricNetwork
from repro.faults import FaultPlan, FaultyFS, active_plan
from repro.faults.crashpoints import M1_CRASH_POINTS, M1_MID_BUNDLE, M1_POST_KEY
from repro.faults.doctor import run_doctor
from repro.temporal.chaincodes import M1IndexChaincode, SupplyChainChaincode
from repro.temporal.intervals import TimeInterval
from repro.temporal.keys import is_interval_key
from repro.temporal.m1 import M1Indexer, M1QueryEngine
from repro.temporal.tqf import TQFEngine
from repro.workload.ingest import ingest
from tests.helpers import SMALL_CONFIG, fabric_config, small_workload

U = 100
T2 = SMALL_CONFIG.t_max
PREFIXES = ["S", "C"]
#: Odd, so a block can end between a bundle's write_index and its
#: clear_index: the fourth bundle's write is the seventh transaction.
CONFIG = fabric_config(max_message_count=7)


def ingested_network(path, fs=None) -> FabricNetwork:
    kwargs = {"fs": fs} if fs is not None else {}
    network = FabricNetwork(path, config=CONFIG, **kwargs)
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
    network = FabricNetwork(path, config=CONFIG)
    network.install(SupplyChainChaincode())
    network.install(M1IndexChaincode())
    return network


def build_indexer(network) -> M1Indexer:
    return M1Indexer(
        ledger=network.ledger,
        gateway=network.gateway("indexer"),
        key_prefixes=PREFIXES,
    )


def crash_indexing(path, plan, u=U) -> None:
    """Ingest into a fresh ledger at ``path`` and kill ``run(0, T2, u)``
    where ``plan`` says."""
    fs = FaultyFS(plan)
    network = ingested_network(path, fs=fs)
    try:
        with active_plan(plan):
            build_indexer(network).run(0, T2, u)
    except SimulatedCrashError:
        pass
    finally:
        fs.kill()
    assert plan.fired is not None, "indexing run never reached the crash point"


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


def assert_one_write_and_one_delete(network) -> None:
    """No bundle appears twice in history and none is left in state-db."""
    history = network.ledger.history_db
    bundles = [key for key in history.keys() if is_interval_key(key)]
    assert bundles
    for key in bundles:
        entries = list(network.ledger.get_history_for_key(key))
        assert [entry.is_delete for entry in entries] == [False, True], key


@pytest.mark.parametrize("point", M1_CRASH_POINTS)
def test_m1_kill_then_resume(tmp_path, point):
    plan = FaultPlan(seed=21).crash_at(point)
    crash_indexing(tmp_path / "net", plan)
    assert plan.fired == point

    recovered = reopened_network(tmp_path / "net")
    try:
        report = build_indexer(recovered).run(0, T2, U)
        assert (report.run.t1, report.run.t2, report.run.u) == (0, T2, U)
        assert_m1_matches_tqf(recovered)
        assert_one_write_and_one_delete(recovered)
        assert run_doctor(tmp_path / "net", config=CONFIG).ok
    finally:
        recovered.close()


def uncleared_bundles(network) -> list:
    scan = network.ledger.state_db.get_state_by_range("", "")
    return [key for key, _ in scan if is_interval_key(key)]


@pytest.mark.parametrize("occurrence", [2, 4])
def test_m1_kill_mid_bundle_later_keys(tmp_path, occurrence):
    """Crashing deeper into the run leaves some bundles committed -- the
    fourth one without its clear; the rerun must not double-bundle them."""
    crash_indexing(
        tmp_path / "net", FaultPlan(seed=22).crash_at(M1_MID_BUNDLE, occurrence=occurrence)
    )
    recovered = reopened_network(tmp_path / "net")
    try:
        assert len(uncleared_bundles(recovered)) == (occurrence == 4)
        build_indexer(recovered).run(0, T2, U)
        assert_m1_matches_tqf(recovered)
        assert_one_write_and_one_delete(recovered)
    finally:
        recovered.close()


@pytest.mark.parametrize("point, occurrence", [(M1_POST_KEY, 2), (M1_MID_BUNDLE, 4)])
def test_rerun_under_another_u_answers_like_tqf(tmp_path, point, occurrence):
    """A bundle depends only on ``(k, θ)``, so a crashed run may be
    finished under another ``u``: bundles of the first attempt are left
    unread in history-db, and those it left in state-db are cleared."""
    plan = FaultPlan(seed=23).crash_at(point, occurrence=occurrence)
    crash_indexing(tmp_path / "net", plan)
    recovered = reopened_network(tmp_path / "net")
    try:
        if point == M1_MID_BUNDLE:
            assert uncleared_bundles(recovered), "the fourth bundle lost its clear"
        report = build_indexer(recovered).run(0, T2, 2 * U)
        assert report.run.u == 2 * U
        assert [run.u for run in M1QueryEngine(recovered.ledger).indexing_runs()] == [2 * U]
        assert_m1_matches_tqf(recovered)
    finally:
        recovered.close()
    report = run_doctor(tmp_path / "net", config=CONFIG)
    assert report.ok
    assert report.findings == [], report.render()


def test_rerunning_a_recorded_run_adds_no_block(tmp_path):
    network = ingested_network(tmp_path / "net")
    try:
        first = build_indexer(network).run(0, T2, U)
        assert first.indexes_written > 0
        height = network.ledger.height
        again = build_indexer(network).run(0, T2, U)
        assert (again.keys_scanned, again.indexes_written, again.events_bundled) == (0, 0, 0)
        assert again.run == first.run
        assert network.ledger.height == height
        assert_m1_matches_tqf(network)
    finally:
        network.close()
