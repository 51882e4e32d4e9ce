"""Tests for the Model M1 indexing process itself."""

from __future__ import annotations

import pytest

from repro.common import metrics as metric_names
from repro.common.errors import IndexingError
from repro.faults.doctor import run_doctor
from repro.temporal.chaincodes import M1IndexChaincode
from repro.temporal.intervals import TimeInterval
from repro.temporal.keys import encode_interval_key
from repro.temporal.m1 import IndexingRun, M1QueryEngine
from repro.temporal.tqf import TQFEngine
from repro.workload.ingest import batch_events_me
from tests.helpers import (
    build_m1_index,
    build_plain_network,
    fabric_config,
    small_workload,
)


@pytest.fixture(scope="module")
def workload():
    return small_workload()


@pytest.fixture(scope="module")
def indexed(tmp_path_factory, workload):
    """A network indexed in two periodic invocations (0,500] and (500,1000]."""
    network = build_plain_network(tmp_path_factory.mktemp("m1"), workload)
    report1 = build_m1_index(network, t1=0, t2=500, u=100)
    report2 = build_m1_index(network, t1=500, t2=1_000, u=100)
    yield network, report1, report2
    network.close()


class TestIndexingReports:
    def test_all_keys_scanned(self, indexed, workload):
        _, report1, _ = indexed
        assert report1.keys_scanned == workload.config.key_count

    def test_all_events_bundled_across_runs(self, indexed, workload):
        _, report1, report2 = indexed
        assert report1.events_bundled + report2.events_bundled == len(workload.events)

    def test_bundles_only_for_nonempty_intervals(self, indexed, workload):
        _, report1, report2 = indexed
        max_possible = workload.config.key_count * 5  # 5 intervals per run
        assert 0 < report1.indexes_written <= max_possible
        assert 0 < report2.indexes_written <= max_possible

    def test_indexing_commits_two_transactions_per_bundle_and_one_per_run(
        self, indexed, workload
    ):
        """Section VI-2: on top of ingestion, each bundle is a write and a
        delete transaction, and each run records itself in one more."""
        network, report1, report2 = indexed
        ingested = len(list(batch_events_me(workload.events)))
        bundles = report1.indexes_written + report2.indexes_written
        committed = network.metrics.snapshot().counter(metric_names.TXS_COMMITTED)
        assert committed == ingested + 2 * bundles + 2

    def test_reports_carry_run_descriptors(self, indexed):
        _, report1, report2 = indexed
        assert (report1.run.t1, report1.run.t2) == (0, 500)
        assert (report2.run.t1, report2.run.t2) == (500, 1_000)
        assert report1.seconds > 0


class TestIndexState:
    def test_index_keys_absent_from_state_db(self, indexed, workload):
        """Every bundle was cleared: state-db carries no composite keys."""
        network, _, _ = indexed
        for key in workload.shipments:
            composites = list(
                network.ledger.state_db.get_state_by_range(key + "\x00", key + "\x01")
            )
            assert composites == []

    def test_bundle_history_shape(self, indexed, workload):
        """Each written index key has exactly two history entries:
        the bundle then the deletion."""
        network, _, _ = indexed
        key = workload.shipments[0]
        events = [e for e in workload.events if e.key == key]
        interval = TimeInterval(0, 100)
        in_first = [e for e in events if interval.contains(e.time)]
        if not in_first:
            pytest.skip("seeded workload left (0,100] empty for this key")
        index_key = encode_interval_key(key, interval)
        history = list(network.ledger.get_history_for_key(index_key))
        assert len(history) == 2
        assert not history[0].is_delete
        assert history[1].is_delete
        assert len(history[0].value) == len(in_first)

    def test_two_runs_recorded(self, indexed):
        network, _, _ = indexed
        engine = M1QueryEngine(network.ledger)
        assert [run.t2 for run in engine.indexing_runs()] == [500, 1_000]

    def test_queries_span_runs(self, indexed, workload):
        """A window straddling both indexing runs sees all events."""
        network, _, _ = indexed
        engine = M1QueryEngine(network.ledger, metrics=network.metrics)
        window = TimeInterval(300, 800)
        for key in workload.shipments[:2]:
            expected = sorted(
                e for e in workload.events
                if e.key == key and window.contains(e.time)
            )
            assert engine.fetch_events(key, window) == expected


class TestIndexerValidation:
    def test_empty_range_rejected(self, tmp_path, workload):
        network = build_plain_network(tmp_path, workload)
        with pytest.raises(IndexingError, match="empty"):
            build_m1_index(network, t1=500, t2=500, u=100)
        network.close()

    def test_unaligned_runs_clip_boundary_intervals(self, tmp_path, workload):
        """Runs not aligned to u (Table III's 25K periods with u=2K) clip
        their boundary intervals; queries still see every event exactly
        once across runs."""
        network = build_plain_network(tmp_path, workload)
        build_m1_index(network, t1=0, t2=250, u=100)  # (0,100],(100,200],(200,250]
        build_m1_index(network, t1=250, t2=1_000, u=100)  # (250,300],(300,400],...
        engine = M1QueryEngine(network.ledger, metrics=network.metrics)
        window = TimeInterval(150, 450)  # straddles the unaligned boundary
        for key in workload.shipments[:3]:
            expected = sorted(
                e for e in workload.events
                if e.key == key and window.contains(e.time)
            )
            assert engine.fetch_events(key, window) == expected
        network.close()


class TestOverlapGuard:
    def test_overlapping_run_rejected(self, tmp_path, workload):
        network = build_plain_network(tmp_path, workload)
        build_m1_index(network, t1=0, t2=500, u=100)
        with pytest.raises(IndexingError, match="double-indexed"):
            build_m1_index(network, t1=400, t2=900, u=100)
        # A properly adjacent run is fine.
        build_m1_index(network, t1=500, t2=1_000, u=100)
        network.close()

    def test_exact_duplicate_run_rejected(self, tmp_path, workload):
        network = build_plain_network(tmp_path, workload)
        build_m1_index(network, t1=0, t2=500, u=100)
        with pytest.raises(IndexingError):
            build_m1_index(network, t1=0, t2=500, u=50)
        network.close()


class TestStoredRunFormats:
    """Run descriptors written by an older tree carried a ``scheme``
    field.  ``"fixed"`` is today's only scheme and still reads; a
    ``"directory"`` run (per-key interval directory, removed) must fail
    loudly everywhere the run list is read -- never be answered as a
    fixed-length run with ``u = 0``."""

    def test_run_stored_with_scheme_fixed_still_reads(
        self, tmp_path, workload, monkeypatch
    ):
        to_value = IndexingRun.to_value
        monkeypatch.setattr(
            IndexingRun, "to_value", lambda run: {**to_value(run), "scheme": "fixed"}
        )
        network = build_plain_network(tmp_path, workload)
        build_m1_index(network, t1=0, t2=1_000, u=100)
        stored = network.ledger.get_state(M1IndexChaincode.META_KEY)
        assert stored == [{"t1": 0, "t2": 1_000, "u": 100, "scheme": "fixed"}]
        m1, tqf = M1QueryEngine(network.ledger), TQFEngine(network.ledger)
        assert m1.indexing_runs() == [IndexingRun(t1=0, t2=1_000, u=100)]
        window = TimeInterval(150, 850)
        for key in workload.shipments[:3]:
            assert m1.fetch_events(key, window) == tqf.fetch_events(key, window)
        network.close()

    def test_run_stored_with_scheme_directory_fails_loudly(self, tmp_path, workload):
        network = build_plain_network(tmp_path, workload)
        gateway = network.gateway("older-tree")
        gateway.submit_transaction(
            M1IndexChaincode.name,
            "record_run",
            [{"t1": 0, "t2": 500, "u": 0, "scheme": "directory"}],
        )
        gateway.flush()
        engine = M1QueryEngine(network.ledger)
        expected = r"removed 'directory' interval scheme.*re-index with M1Indexer\.run"
        with pytest.raises(IndexingError, match=expected):
            engine.indexing_runs()
        with pytest.raises(IndexingError, match=expected):
            engine.fetch_events(workload.shipments[0], TimeInterval(0, 400))
        with pytest.raises(IndexingError, match=expected):
            build_m1_index(network, t1=500, t2=1_000, u=100)
        network.close()

        report = run_doctor(tmp_path, config=fabric_config())
        assert not report.ok
        unreadable = [f for f in report.findings if f.code == "m1-run-unreadable"]
        assert len(unreadable) == 1
        assert "re-index with M1Indexer.run" in unreadable[0].detail
