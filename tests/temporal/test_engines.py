"""Tests for the three query engines against ingested ledgers.

The ground truth for every fetch is the generated workload itself
(filtered in memory), so these tests check the engines against an oracle
that never touches the ledger.
"""

from __future__ import annotations

import gc

import pytest

from repro.common import metrics as metric_names
from repro.common.errors import TemporalQueryError
from repro.fabric.network import FabricNetwork
from repro.temporal import engine as engine_module
from repro.temporal.chaincodes import (
    M1IndexChaincode,
    M2SupplyChainChaincode,
    SupplyChainChaincode,
)
from repro.temporal.engine import TemporalQueryEngine
from repro.temporal.events import LOAD, UNLOAD, Event
from repro.temporal.intervals import TimeInterval
from repro.temporal.join import temporal_join
from repro.temporal.m1 import M1QueryEngine
from repro.temporal.m2 import M2QueryEngine
from repro.temporal.tqf import TQFEngine
from repro.workload.ingest import ingest
from tests.helpers import build_m1_index, build_plain_network, fabric_config


def oracle_events(workload, key, window):
    return sorted(
        event
        for event in workload.events
        if event.key == key and window.contains(event.time)
    )


WINDOWS = [
    TimeInterval(0, 100),
    TimeInterval(100, 300),
    TimeInterval(350, 650),
    TimeInterval(900, 1_000),
]

#: Shipments whose text after the prefix starts at or above U+007F (where
#: the old ``"\\x7f"`` scan bound ended), and one that is a prefix of another.
ODD_SHIPMENTS = ["S1", "S10", "S\x7f1", "S\u00e91", "S\U0001f6a2"]


@pytest.fixture(scope="module")
def odd_key_networks(tmp_path_factory):
    """``(plain + M1 index, M2)`` ledgers: every odd shipment rides
    container ``C1`` over (10, 90] while ``C1`` is on truck ``T1``."""
    path = tmp_path_factory.mktemp("odd-keys")
    events = [Event(5, "C1", "T1", LOAD)]
    events += [Event(10, key, "C1", LOAD) for key in ODD_SHIPMENTS]
    events += [Event(90, key, "C1", UNLOAD) for key in ODD_SHIPMENTS]
    events += [Event(95, "C1", "T1", UNLOAD)]
    plain = FabricNetwork(path / "plain", config=fabric_config())
    plain.install(SupplyChainChaincode())
    plain.install(M1IndexChaincode())
    m2 = FabricNetwork(path / "m2", config=fabric_config())
    m2.install(M2SupplyChainChaincode(u=25))
    for network, chaincode in ((plain, SupplyChainChaincode), (m2, M2SupplyChainChaincode)):
        ingest(network.gateway("ingestor"), events, chaincode.name, strategy="se")
    build_m1_index(plain, t1=0, t2=100, u=25)
    yield plain, m2
    plain.close()
    m2.close()


def assert_odd_keys_listed_and_joined(network, model):
    facade = TemporalQueryEngine(network.ledger, network.metrics)
    assert facade.engine(model).list_keys("S") == sorted(ODD_SHIPMENTS)
    rows = facade.run_join(model, TimeInterval(0, 100)).rows
    assert [(row.shipment, row.truck, row.interval) for row in rows] == [
        (key, "T1", TimeInterval(10, 90)) for key in sorted(ODD_SHIPMENTS)
    ]


class TestTQFEngine:
    def test_list_keys(self, plain_network, workload):
        engine = TQFEngine(plain_network.ledger)
        assert engine.list_keys("S") == workload.shipments
        assert engine.list_keys("C") == workload.containers

    def test_non_ascii_entities_are_listed_and_joined(self, odd_key_networks):
        assert_odd_keys_listed_and_joined(odd_key_networks[0], "tqf")

    @pytest.mark.parametrize("window", WINDOWS, ids=str)
    def test_fetch_matches_oracle(self, plain_network, workload, window):
        engine = TQFEngine(plain_network.ledger, metrics=plain_network.metrics)
        for key in workload.shipments[:3] + workload.containers[:2]:
            assert engine.fetch_events(key, window) == oracle_events(
                workload, key, window
            )

    def test_early_window_cheaper_than_late(self, plain_network, workload):
        """TQF's defining weakness: cost grows with the window's *end*."""
        engine = TQFEngine(plain_network.ledger, metrics=plain_network.metrics)
        key = workload.shipments[0]

        def blocks_for(window):
            before = plain_network.metrics.snapshot().counter(metric_names.BLOCKS_DESERIALIZED)
            engine.fetch_events(key, window)
            return plain_network.metrics.snapshot().counter(metric_names.BLOCKS_DESERIALIZED) - before

        early = blocks_for(TimeInterval(0, 100))
        late = blocks_for(TimeInterval(900, 1_000))
        assert late > early


class TestM1Engine:
    def test_indexing_runs_recorded(self, plain_network, workload):
        engine = M1QueryEngine(plain_network.ledger)
        runs = engine.indexing_runs()
        assert len(runs) == 1
        assert runs[0].t1 == 0
        assert runs[0].t2 == workload.config.t_max
        assert runs[0].u == 100
        assert max(run.t2 for run in runs) == workload.config.t_max

    def test_list_keys_sees_base_keys(self, plain_network, workload):
        engine = M1QueryEngine(plain_network.ledger)
        assert engine.list_keys("S") == workload.shipments

    def test_non_ascii_entities_are_listed_and_joined(self, odd_key_networks):
        assert_odd_keys_listed_and_joined(odd_key_networks[0], "m1")

    @pytest.mark.parametrize("window", WINDOWS, ids=str)
    def test_fetch_matches_oracle(self, plain_network, workload, window):
        engine = M1QueryEngine(plain_network.ledger, metrics=plain_network.metrics)
        for key in workload.shipments[:3] + workload.containers[:2]:
            assert engine.fetch_events(key, window) == oracle_events(
                workload, key, window
            )

    def test_one_block_per_bundle(self, plain_network, workload):
        """Each GHFK on an index key deserializes exactly one block."""
        metrics = plain_network.metrics
        engine = M1QueryEngine(plain_network.ledger, metrics=metrics)
        key = workload.shipments[0]
        window = TimeInterval(200, 500)  # 3 index intervals at u=100
        before = metrics.snapshot()
        engine.fetch_events(key, window)
        delta = metrics.snapshot().diff(before)
        ghfk_calls = delta.counter(metric_names.GHFK_CALLS)
        assert ghfk_calls == 3
        # At most one block per call (empty bundles cost zero blocks).
        assert delta.counter(metric_names.BLOCKS_DESERIALIZED) <= ghfk_calls

    def test_query_beyond_indexed_range_rejected(self, plain_network, workload):
        engine = M1QueryEngine(plain_network.ledger)
        beyond = TimeInterval(0, workload.config.t_max + 100)
        with pytest.raises(TemporalQueryError, match="beyond the indexed range"):
            engine.fetch_events(workload.shipments[0], beyond)

    def test_unindexed_ledger_rejects_queries(self, tmp_path, workload):
        network = build_plain_network(tmp_path, workload)
        engine = M1QueryEngine(network.ledger)
        assert engine.indexing_runs() == []
        with pytest.raises(TemporalQueryError):
            engine.fetch_events(workload.shipments[0], TimeInterval(0, 100))
        network.close()


class TestM2Engine:
    def test_list_keys_dedups_composites(self, m2_network, workload):
        engine = M2QueryEngine(m2_network.ledger)
        assert engine.list_keys("S") == workload.shipments
        assert engine.list_keys("C") == workload.containers

    def test_non_ascii_entities_are_listed_and_joined(self, odd_key_networks):
        assert_odd_keys_listed_and_joined(odd_key_networks[1], "m2")

    def test_list_keys_rejects_a_non_composite_key(self, plain_network):
        """One decode per base key still meets every key that is not a
        ``(k, θ)`` state: a plain ledger is not silently enumerated."""
        with pytest.raises(TemporalQueryError, match="not a composite"):
            M2QueryEngine(plain_network.ledger).list_keys("S")

    def test_index_intervals_are_temporal(self, m2_network, workload):
        engine = M2QueryEngine(m2_network.ledger)
        intervals = engine.overlapping_intervals(
            workload.shipments[0], TimeInterval(0, workload.config.t_max)
        )
        assert len(intervals) > 1
        assert intervals == sorted(intervals)
        assert all(interval.end - interval.start == 100 for interval in intervals)

    @pytest.mark.parametrize("window", WINDOWS, ids=str)
    def test_fetch_matches_oracle(self, m2_network, workload, window):
        engine = M2QueryEngine(m2_network.ledger, metrics=m2_network.metrics)
        for key in workload.shipments[:3] + workload.containers[:2]:
            assert engine.fetch_events(key, window) == oracle_events(
                workload, key, window
            )

    def test_late_window_does_not_scan_prefix(self, m2_network, workload):
        """M2's defining strength: a late window touches only late blocks."""
        metrics = m2_network.metrics
        engine = M2QueryEngine(m2_network.ledger, metrics=metrics)
        key = workload.shipments[0]

        def blocks_for(window):
            before = metrics.snapshot().counter(metric_names.BLOCKS_DESERIALIZED)
            engine.fetch_events(key, window)
            return metrics.snapshot().counter(metric_names.BLOCKS_DESERIALIZED) - before

        late = blocks_for(TimeInterval(900, 1_000))
        full = blocks_for(TimeInterval(0, 1_000))
        assert late < full


class TestFacade:
    def test_unknown_model_rejected(self, plain_network):
        facade = TemporalQueryEngine(plain_network.ledger, plain_network.metrics)
        with pytest.raises(TemporalQueryError, match="unknown model"):
            facade.engine("m3")
        with pytest.raises(TemporalQueryError, match="unknown model"):
            facade.run_join("m3", TimeInterval(0, 100))

    def test_run_join_stats_populated(self, plain_network, workload):
        facade = TemporalQueryEngine(plain_network.ledger, plain_network.metrics)
        result = facade.run_join("tqf", TimeInterval(100, 400))
        assert result.stats.model == "tqf"
        assert result.stats.ghfk_calls == workload.config.key_count
        assert result.stats.blocks_deserialized > 0
        assert result.stats.join_seconds > 0
        assert result.stats.ghfk_seconds > 0
        assert result.stats.keys_queried == workload.config.key_count

    def test_a_collection_inside_the_query_is_its_gc_seconds(
        self, plain_network, monkeypatch
    ):
        """``gc_seconds`` is the collector's pause inside the query: a full
        collection forced in the join shows, and stays within the query's
        wall time."""
        def collecting_join(*args):
            gc.collect()
            return temporal_join(*args)

        monkeypatch.setattr(engine_module, "temporal_join", collecting_join)
        facade = TemporalQueryEngine(plain_network.ledger, plain_network.metrics)
        stats = facade.run_join("tqf", TimeInterval(100, 400)).stats
        assert 0 < stats.gc_seconds <= stats.join_seconds

    def test_m1_makes_more_but_cheaper_ghfk_calls(self, plain_network, workload):
        """Table I's structure: M1 calls = keys x overlapping intervals,
        TQF calls = keys; M1 deserializes fewer blocks."""
        facade = TemporalQueryEngine(plain_network.ledger, plain_network.metrics)
        window = TimeInterval(500, 800)
        tqf = facade.run_join("tqf", window).stats
        m1 = facade.run_join("m1", window).stats
        assert m1.ghfk_calls == workload.config.key_count * 3  # 3 intervals of 100
        assert tqf.ghfk_calls == workload.config.key_count
        assert m1.blocks_deserialized < tqf.blocks_deserialized

    def test_join_rows_identical_across_models(
        self, plain_network, m2_network, workload
    ):
        window = TimeInterval(200, 700)
        plain_facade = TemporalQueryEngine(plain_network.ledger, plain_network.metrics)
        m2_facade = TemporalQueryEngine(m2_network.ledger, m2_network.metrics)
        rows_tqf = plain_facade.run_join("tqf", window).rows
        rows_m1 = plain_facade.run_join("m1", window).rows
        rows_m2 = m2_facade.run_join("m2", window).rows
        assert rows_tqf == rows_m1 == rows_m2
        assert rows_tqf  # the window is wide enough to produce rows
