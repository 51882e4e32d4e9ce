"""Tests for query EXPLAIN: predictions must match measured counters."""

from __future__ import annotations

from contextlib import closing

import pytest

from repro.common import metrics as metric_names
from repro.common.errors import TemporalQueryError
from repro.fabric.network import FabricNetwork
from repro.temporal.chaincodes import M2SupplyChainChaincode
from repro.temporal.engine import TemporalQueryEngine
from repro.temporal.events import Event
from repro.temporal.explain import QueryExplainer
from repro.temporal.intervals import TimeInterval
from repro.workload.ingest import ingest
from tests.helpers import fabric_config

WINDOWS = [
    TimeInterval(0, 200),
    TimeInterval(200, 500),
    TimeInterval(450, 1_000),
]


def measured_fetch(network, engine, key, window):
    before = network.metrics.snapshot()
    engine.fetch_events(key, window)
    delta = network.metrics.snapshot().diff(before)
    return (
        delta.counter(metric_names.GHFK_CALLS),
        delta.counter(metric_names.BLOCKS_DESERIALIZED),
    )


class TestM1Explain:
    @pytest.mark.parametrize("window", WINDOWS, ids=str)
    def test_prediction_matches_measurement(self, plain_network, workload, window):
        explainer = QueryExplainer(plain_network.ledger)
        facade = TemporalQueryEngine(plain_network.ledger, plain_network.metrics)
        for key in workload.shipments[:3]:
            plan = explainer.explain_fetch("m1", key, window)
            calls, blocks = measured_fetch(
                plain_network, facade.engine("m1"), key, window
            )
            assert plan.ghfk_calls == calls, key
            assert plan.blocks == blocks, key
            assert plan.blocks_exact

    def test_plan_lists_intervals(self, plain_network, workload):
        explainer = QueryExplainer(plain_network.ledger)
        plan = explainer.explain_fetch(
            "m1", workload.shipments[0], TimeInterval(200, 500)
        )
        assert len(plan.intervals) == 3  # u=100 over a 300-wide window
        assert "m1 fetch" in plan.render()


class TestM1ExplainAcrossRuns:
    """``explain_join`` resolves the query's own plan, once for all keys:
    on a ledger indexed by three runs with different ``u``, predicted
    GHFK calls and blocks are the query's."""

    @pytest.mark.parametrize(
        "window", [TimeInterval(250, 400), TimeInterval(300, 650)], ids=str
    )
    def test_prediction_equals_the_multi_run_query(self, three_runs, workload, window):
        keys = workload.shipments + workload.containers
        before = three_runs.metrics.snapshot()
        plans = QueryExplainer(three_runs.ledger, three_runs.metrics).explain_join(
            "m1", window, keys
        )
        delta = three_runs.metrics.snapshot().diff(before)
        assert delta.counter(metric_names.GET_STATE_CALLS) == 1
        stats = TemporalQueryEngine(three_runs.ledger, three_runs.metrics).run_join(
            "m1", window
        ).stats
        assert stats.keys_queried == len(keys)
        assert sum(plan.ghfk_calls for plan in plans) == stats.ghfk_calls
        assert sum(plan.blocks for plan in plans) == stats.blocks_deserialized
        assert len({tuple(plan.intervals) for plan in plans}) == 1
        assert all(plan.blocks_exact for plan in plans)


class TestM2Explain:
    @pytest.mark.parametrize("window", WINDOWS, ids=str)
    def test_prediction_bounds_measurement(self, m2_network, workload, window):
        explainer = QueryExplainer(m2_network.ledger)
        facade = TemporalQueryEngine(m2_network.ledger, m2_network.metrics)
        for key in workload.shipments[:3]:
            plan = explainer.explain_fetch("m2", key, window)
            calls, blocks = measured_fetch(m2_network, facade.engine("m2"), key, window)
            assert plan.ghfk_calls == calls, key
            if plan.blocks_exact:
                assert plan.blocks == blocks, key
            else:
                assert plan.blocks >= blocks, key

    def test_aligned_window_is_exact(self, m2_network, workload):
        explainer = QueryExplainer(m2_network.ledger)
        plan = explainer.explain_fetch(
            "m2", workload.shipments[0], TimeInterval(0, 1_000)
        )
        assert plan.blocks_exact


#: At u=100 these occupy (0,100] (100,200] (400,500] (500,600] for S1,
#: (100,200] (400,500] for S2 and (0,100] (500,600] for C1: nothing in
#: (200, 400], nothing past 600.
GAPPED_EVENTS = [
    Event(5, "C1", "T1", "l"), Event(10, "S1", "C1", "l"), Event(120, "S2", "C1", "l"),
    Event(150, "S1", "C1", "ul"), Event(420, "S1", "C1", "l"), Event(480, "S2", "C1", "ul"),
    Event(560, "S1", "C1", "ul"), Event(590, "C1", "T1", "ul"),
]

#: window -> GHFK calls of the join over S1, S2, C1.
GAPPED_WINDOWS = {
    "aligned": (TimeInterval(100, 200), 2),
    "unaligned": (TimeInterval(150, 450), 4),
    "start-0": (TimeInterval(0, 130), 4),
    "inside-gap": (TimeInterval(220, 380), 0),
    "exactly-the-gap": (TimeInterval(200, 400), 0),
    "past-t_max": (TimeInterval(700, 900), 0),
    "everything": (TimeInterval(0, 1_000), 8),
}


class TestM2ExplainIsTheQuerysOwnScan:
    """EXPLAIN and ``fetch_events`` list ``k``'s overlapping intervals
    through one method, so the predicted and the spent GHFK calls agree
    on every kind of window -- including those that overlap nothing."""

    @pytest.fixture(scope="class")
    def gapped(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("gapped-m2")
        with closing(FabricNetwork(path, config=fabric_config())) as network:
            network.install(M2SupplyChainChaincode(u=100))
            ingest(
                network.gateway("ingestor"), GAPPED_EVENTS,
                M2SupplyChainChaincode.name, strategy="se",
            )
            yield network

    @pytest.mark.parametrize("name", sorted(GAPPED_WINDOWS))
    def test_predicted_ghfk_calls_equal_the_querys(self, gapped, name):
        window, expected = GAPPED_WINDOWS[name]
        plans = QueryExplainer(gapped.ledger).explain_join(
            "m2", window, ["S1", "S2", "C1"]
        )
        stats = TemporalQueryEngine(gapped.ledger, gapped.metrics).run_join(
            "m2", window
        ).stats
        assert stats.keys_queried == 3
        assert sum(plan.ghfk_calls for plan in plans) == stats.ghfk_calls == expected
        for plan in plans:
            assert all(interval.overlaps(window) for interval in plan.intervals)


class TestTQFExplain:
    def test_upper_bound_holds(self, plain_network, workload):
        explainer = QueryExplainer(plain_network.ledger)
        facade = TemporalQueryEngine(plain_network.ledger, plain_network.metrics)
        key = workload.containers[0]
        for window in WINDOWS:
            plan = explainer.explain_fetch("tqf", key, window)
            calls, blocks = measured_fetch(
                plain_network, facade.engine("tqf"), key, window
            )
            assert calls == 1 == plan.ghfk_calls
            assert not plan.blocks_exact
            assert plan.blocks >= blocks

    def test_full_window_bound_is_tight(self, plain_network, workload):
        """Scanning to the end of time hits the bound exactly."""
        explainer = QueryExplainer(plain_network.ledger)
        facade = TemporalQueryEngine(plain_network.ledger, plain_network.metrics)
        key = workload.containers[0]
        window = TimeInterval(0, workload.config.t_max)
        plan = explainer.explain_fetch("tqf", key, window)
        _, blocks = measured_fetch(plain_network, facade.engine("tqf"), key, window)
        assert plan.blocks == blocks


class TestExplainJoin:
    def test_join_plan_aggregates(self, plain_network, workload):
        explainer = QueryExplainer(plain_network.ledger)
        window = TimeInterval(200, 500)
        plans = explainer.explain_join("m1", window, workload.shipments)
        assert len(plans) == len(workload.shipments)
        total_calls = sum(plan.ghfk_calls for plan in plans)
        assert total_calls == len(workload.shipments) * 3

    def test_no_keys_needs_no_plan(self, tmp_path):
        """With no key to fetch the M1 join never plans, so it answers
        (no rows) over a window no run covers; explaining it must too."""
        with closing(FabricNetwork(tmp_path, config=fabric_config())) as network:
            explainer = QueryExplainer(network.ledger)
            assert explainer.explain_join("m1", TimeInterval(0, 100), []) == []

    def test_unknown_model(self, plain_network):
        with pytest.raises(TemporalQueryError):
            QueryExplainer(plain_network.ledger).explain_fetch(
                "m7", "S00000", TimeInterval(0, 100)
            )
