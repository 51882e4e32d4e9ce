"""Tests for the read-write (checked) workload: the paper's future-work
scenario where every transaction also reads current state."""

from __future__ import annotations

from contextlib import closing

import pytest

from repro.common import metrics as metric_names
from repro.common.errors import EndorsementError
from repro.fabric.network import FabricNetwork
from repro.temporal.chaincodes import (
    M2SupplyChainChaincode,
    SupplyChainChaincode,
)
from repro.temporal.intervals import TimeInterval
from repro.temporal.m2 import M2QueryEngine
from repro.temporal.tqf import TQFEngine
from repro.workload.generator import WorkloadConfig, generate
from repro.workload.ingest import ingest_checked
from tests.helpers import fabric_config

CONFIG = WorkloadConfig(
    name="checked",
    n_shipments=4,
    n_containers=2,
    n_trucks=2,
    events_per_key=10,
    t_max=500,
    seed=42,
)


@pytest.fixture(scope="module")
def workload():
    return generate(CONFIG)


@pytest.fixture
def plain_network(tmp_path):
    with closing(FabricNetwork(tmp_path, config=fabric_config())) as network:
        network.install(SupplyChainChaincode())
        yield network


@pytest.fixture
def m2_network(tmp_path):
    with closing(FabricNetwork(tmp_path, config=fabric_config())) as network:
        network.install(M2SupplyChainChaincode(u=100))
        yield network


class TestPlainChecked:
    def test_checked_ingest_matches_unchecked_history(self, plain_network, workload):
        gateway = plain_network.gateway("ingestor")
        metrics = plain_network.metrics
        before = metrics.snapshot().counter(metric_names.GET_STATE_CALLS)
        report = ingest_checked(gateway, workload.events, "supplychain")
        assert report.transactions == len(workload.events)
        # On original keys the current state is one GetState per event.
        assert metrics.snapshot().counter(metric_names.GET_STATE_CALLS) - before == len(workload.events)
        engine = TQFEngine(plain_network.ledger)
        window = TimeInterval(0, CONFIG.t_max)
        for key in workload.shipments:
            expected = sorted(e for e in workload.events if e.key == key)
            assert engine.fetch_events(key, window) == expected

    def test_double_load_rejected(self, plain_network):
        gateway = plain_network.gateway("client")
        gateway.submit_transaction(
            "supplychain", "record_event_checked", ["S1", "C1", 10, "l"], timestamp=10
        )
        gateway.flush()
        with pytest.raises(EndorsementError, match="already loaded"):
            gateway.submit_transaction(
                "supplychain", "record_event_checked", ["S1", "C2", 20, "l"],
                timestamp=20,
            )

    def test_unload_without_load_rejected(self, plain_network):
        gateway = plain_network.gateway("client")
        with pytest.raises(EndorsementError, match="not currently loaded"):
            gateway.submit_transaction(
                "supplychain", "record_event_checked", ["S1", "C1", 10, "ul"],
                timestamp=10,
            )

    def test_unload_wrong_container_rejected(self, plain_network):
        gateway = plain_network.gateway("client")
        gateway.submit_transaction(
            "supplychain", "record_event_checked", ["S1", "C1", 10, "l"], timestamp=10
        )
        gateway.flush()
        with pytest.raises(EndorsementError, match="loaded into 'C1'"):
            gateway.submit_transaction(
                "supplychain", "record_event_checked", ["S1", "C2", 20, "ul"],
                timestamp=20,
            )

    def test_duplicate_unloads_hit_mvcc(self, plain_network):
        """Two identical unloads endorsed against the same committed load:
        both pass the business check at endorsement, but the second reads
        a version the first overwrites, so commit invalidates it."""
        gateway = plain_network.gateway("client")
        gateway.submit_transaction(
            "supplychain", "record_event_checked", ["S1", "C1", 10, "l"], timestamp=10
        )
        gateway.flush()
        gateway.submit_transaction(
            "supplychain", "record_event_checked", ["S1", "C1", 20, "ul"], timestamp=20
        )
        gateway.submit_transaction(
            "supplychain", "record_event_checked", ["S1", "C1", 25, "ul"], timestamp=25
        )
        gateway.flush()
        metrics = plain_network.metrics
        assert metrics.snapshot().counter(metric_names.TXS_INVALIDATED) == 1
        assert plain_network.ledger.get_state("S1")["t"] == 20

    def test_flush_each_false_rejected_at_endorsement(self, plain_network, workload):
        """Without flushing, a checked unload is endorsed before its load
        commits; the chaincode sees stale state and rejects the business
        operation outright -- exactly why ingest_checked flushes."""
        with pytest.raises(EndorsementError, match="not currently loaded"):
            ingest_checked(
                plain_network.gateway("ingestor"),
                workload.events,
                "supplychain",
                flush_each=False,
            )


class TestM2Checked:
    def test_checked_ingest_equivalent(self, m2_network, workload):
        ingest_checked(m2_network.gateway("ingestor"), workload.events, "supplychain-m2")
        engine = M2QueryEngine(m2_network.ledger)
        window = TimeInterval(0, CONFIG.t_max)
        for key in workload.shipments + workload.containers:
            expected = sorted(e for e in workload.events if e.key == key)
            assert engine.fetch_events(key, window) == expected

    def test_m2_checked_pays_probing_reads(self, m2_network, workload, tmp_path_factory):
        """Under M2, every checked transaction runs the GetState-Base loop,
        so GetState calls exceed one per event -- and more of them the
        smaller u is, since more empty intervals lie between an event and
        its entity's latest state."""
        with closing(FabricNetwork(
            tmp_path_factory.mktemp("m2-small-u"), config=fabric_config()
        )) as small_u_network:
            small_u_network.install(M2SupplyChainChaincode(u=25))
            probes = {}
            for u, network in ((100, m2_network), (25, small_u_network)):
                before = network.metrics.snapshot().counter(metric_names.GET_STATE_CALLS)
                report = ingest_checked(
                    network.gateway("ingestor"), workload.events, "supplychain-m2"
                )
                assert report.events == len(workload.events)
                probes[u] = network.metrics.snapshot().counter(metric_names.GET_STATE_CALLS) - before
        assert probes[25] > probes[100] > len(workload.events)

    def test_m2_validation_rules_apply(self, m2_network):
        gateway = m2_network.gateway("client")
        gateway.submit_transaction(
            "supplychain-m2", "record_event_checked", ["S1", "C1", 10, "l"],
            timestamp=10,
        )
        gateway.flush()
        with pytest.raises(EndorsementError, match="already loaded"):
            gateway.submit_transaction(
                "supplychain-m2", "record_event_checked", ["S1", "C2", 20, "l"],
                timestamp=20,
            )
