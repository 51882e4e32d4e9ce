"""Degraded-mode queries and per-query deadlines.

These are the query-side resilience guarantees
``tests/faults/test_faulted_traffic.py`` leans on:
an index that cannot answer degrades to a *correct* TQF result tagged
with a :class:`~repro.temporal.engine.DegradedResult` naming the real
failure, every time; an unknown model or a failing TQF query is never
degraded; a deadline bounds the whole fetch and always surfaces as the
typed :class:`~repro.common.errors.DeadlineExceededError`, never as a
degraded answer.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.common.errors import (
    DeadlineExceededError,
    StorageError,
    TemporalQueryError,
)
from repro.common.resilience import Deadline
from repro.fabric.network import FabricNetwork
from repro.temporal.chaincodes import SupplyChainChaincode
from repro.temporal.engine import FALLBACK_MODEL, TemporalQueryEngine
from repro.temporal.intervals import TimeInterval
from repro.workload.generator import WorkloadConfig, generate
from repro.workload.ingest import ingest
from tests.helpers import FakeClock, fabric_config

CONFIG = WorkloadConfig(
    name="resilient",
    n_shipments=3,
    n_containers=2,
    n_trucks=2,
    events_per_key=6,
    t_max=200,
    seed=5,
)
WINDOW = TimeInterval(0, 200)


@pytest.fixture(scope="module")
def network(tmp_path_factory):
    """Ingested ledger with NO M1 index: every m1 probe fails typed."""
    with FabricNetwork(
        tmp_path_factory.mktemp("resilient"), config=fabric_config()
    ) as net:
        net.install(SupplyChainChaincode())
        ingest(net.gateway("ingestor"), generate(CONFIG).events, "supplychain")
        net.gateway("ingestor").flush()
        yield net


@pytest.fixture
def facade(network):
    return TemporalQueryEngine(network.ledger, network.metrics)


class TestDegradedMode:
    def test_unindexed_m1_raises_without_degrade(self, facade):
        with pytest.raises(TemporalQueryError, match="indexed"):
            facade.run_join("m1", WINDOW)

    def test_unindexed_m1_degrades_to_correct_tqf_rows(self, facade):
        healthy = facade.run_join(FALLBACK_MODEL, WINDOW)
        result = facade.run_join("m1", WINDOW, degrade=True)
        assert result.degraded is not None
        assert result.degraded.requested_model == "m1"
        assert result.degraded.fallback_model == FALLBACK_MODEL
        assert result.degraded.error_type == "TemporalQueryError"
        assert sorted(result.rows) == sorted(healthy.rows)

    def test_fallback_model_never_degrades(self, facade):
        result = facade.run_join(FALLBACK_MODEL, WINDOW, degrade=True)
        assert result.degraded is None

    def test_each_degraded_answer_names_its_failure(self, facade):
        # No failure count, no clock: the fifth query probes the index
        # and reports its error exactly as the first did.
        healthy = sorted(facade.run_join(FALLBACK_MODEL, WINDOW).rows)
        for _ in range(5):
            result = facade.run_join("m1", WINDOW, degrade=True)
            assert result.degraded is not None
            assert result.degraded.error_type == "TemporalQueryError"
            assert f"no indexing run covers {WINDOW}" in result.degraded.reason
            assert sorted(result.rows) == healthy

    def test_unknown_model_raises_even_with_degrade(self, facade):
        with pytest.raises(TemporalQueryError, match="unknown model"):
            facade.run_join("m3", WINDOW, degrade=True)

    def test_fallback_model_failure_propagates_under_degrade(
        self, facade, monkeypatch
    ):
        # Only the first read fails: a TQF query that "degraded" to itself
        # would retry and answer, hiding the failure.
        tqf = facade.engine(FALLBACK_MODEL)
        real_fetch, calls = tqf.fetch_events, []

        def unreadable_once(key, window, plan=None):
            calls.append(key)
            if len(calls) == 1:
                raise StorageError("block file unreadable")
            return real_fetch(key, window, plan)

        monkeypatch.setattr(tqf, "fetch_events", unreadable_once)
        with pytest.raises(StorageError, match="unreadable"):
            facade.run_join(FALLBACK_MODEL, WINDOW, degrade=True)
        assert len(calls) == 1

    def test_degraded_stats_count_the_failed_probe(self, facade):
        healthy = facade.run_join(FALLBACK_MODEL, WINDOW)
        degraded = facade.run_join("m1", WINDOW, degrade=True)
        assert sorted(degraded.rows) == sorted(healthy.rows)
        assert degraded.stats.model == FALLBACK_MODEL
        # Before its plan failed, the M1 probe listed both key prefixes
        # (two range scans) and read the run list (one GetState).
        probe_only = {"get_state_calls": (0, 1), "range_scan_calls": (2, 4)}
        for name, (alone, with_probe) in probe_only.items():
            assert getattr(healthy.stats, name) == alone, name
            assert getattr(degraded.stats, name) == with_probe, name
        timers = {"model", "window", "join_seconds", "ghfk_seconds"}
        for stat in dataclasses.fields(healthy.stats):
            if stat.name not in timers | probe_only.keys():
                assert getattr(degraded.stats, stat.name) == getattr(
                    healthy.stats, stat.name
                ), stat.name


class TestDeadlines:
    def test_expired_deadline_propagates_even_with_degrade(self, facade):
        clock = FakeClock()
        deadline = Deadline.after(0.5, clock=clock)
        clock.now = 1.0
        with pytest.raises(DeadlineExceededError):
            facade.run_join("tqf", WINDOW, deadline=deadline)
        with pytest.raises(DeadlineExceededError):
            # Deadline expiry is never converted into a degraded answer.
            facade.run_join("m1", WINDOW, deadline=deadline, degrade=True)

    def test_deadline_expiring_mid_fetch_aborts_the_fanout(self, facade):
        clock = FakeClock()
        deadline = Deadline.after(1.0, clock=clock)
        shipment_events, container_events = facade.fetch_window_events(
            "tqf", WINDOW, deadline=deadline
        )
        assert shipment_events and container_events  # within budget: fine
        clock.now = 2.0
        with pytest.raises(DeadlineExceededError, match="fetch|enumeration"):
            facade.fetch_window_events("tqf", WINDOW, deadline=deadline)

    def test_deadline_is_checked_between_keys(self, facade, monkeypatch):
        clock = FakeClock()
        deadline = Deadline.after(1.0, clock=clock)
        tqf = facade.engine("tqf")
        real_fetch, fetched = tqf.fetch_events, []

        def fetch_then_expire(key, window, plan=None):
            fetched.append(key)
            clock.now = 2.0
            return real_fetch(key, window, plan)

        monkeypatch.setattr(tqf, "fetch_events", fetch_then_expire)
        with pytest.raises(DeadlineExceededError, match="per-key fetch"):
            facade.fetch_window_events("tqf", WINDOW, deadline=deadline)
        # The first key's fetch ran; the budget died before the second.
        assert len(fetched) == 1

    def test_generous_deadline_changes_nothing(self, facade):
        bounded = facade.run_join("tqf", WINDOW, deadline=Deadline.after(60.0))
        unbounded = facade.run_join("tqf", WINDOW)
        assert sorted(bounded.rows) == sorted(unbounded.rows)
        assert bounded.degraded is None
