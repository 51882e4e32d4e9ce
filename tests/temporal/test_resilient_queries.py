"""Degraded-mode queries, per-query deadlines and the engine's breakers.

These are the query-side resilience guarantees
``tests/faults/test_faulted_traffic.py`` leans on:
an index that cannot answer degrades to a *correct* TQF result tagged
with :class:`~repro.temporal.engine.DegradedResult`; repeated failures
trip the model's circuit breaker so later queries skip the doomed probe;
a deadline bounds the whole fetch and always surfaces as the typed
:class:`~repro.common.errors.DeadlineExceededError`, never as a degraded
answer.
"""

from __future__ import annotations

import pytest

from repro.common.errors import DeadlineExceededError, TemporalQueryError
from repro.common.resilience import Deadline
from repro.fabric.network import FabricNetwork
from repro.temporal.chaincodes import SupplyChainChaincode
from repro.temporal.engine import FALLBACK_MODEL, TemporalQueryEngine
from repro.temporal.intervals import TimeInterval
from repro.workload.generator import WorkloadConfig, generate
from repro.workload.ingest import ingest
from tests.helpers import fabric_config

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


class FakeClock:
    """Manually advanced monotonic clock."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


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
        assert FALLBACK_MODEL not in facade.breakers

    def test_repeated_failures_trip_the_breaker(self, facade):
        breaker = facade.breakers["m1"]
        for _ in range(3):
            result = facade.run_join("m1", WINDOW, degrade=True)
            assert result.degraded is not None
        assert breaker.trips == 1
        assert breaker.state == "open"
        # With the breaker open the probe is skipped entirely: the
        # degraded marker carries the breaker's error type, and the
        # rows still answer from the fallback.
        result = facade.run_join("m1", WINDOW, degrade=True)
        assert result.degraded is not None
        assert result.degraded.error_type == "CircuitOpenError"
        assert sorted(result.rows) == sorted(
            facade.run_join(FALLBACK_MODEL, WINDOW).rows
        )


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
