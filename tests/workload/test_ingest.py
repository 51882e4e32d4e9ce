"""Tests for the SE/ME ingestion strategies."""

from __future__ import annotations

from contextlib import closing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import metrics as metric_names
from repro.common.errors import WorkloadError
from repro.fabric.network import FabricNetwork
from repro.temporal.chaincodes import M2SupplyChainChaincode, SupplyChainChaincode
from repro.temporal.events import LOAD, UNLOAD, Event
from repro.workload.generator import WorkloadConfig, generate
from repro.workload.ingest import batch_events_me, ingest
from tests.helpers import fabric_config


def ev(time, key, other="C1", kind=LOAD):
    return Event(time=time, key=key, other=other, kind=kind)


class TestMEBatching:
    def test_no_key_repeats_within_batch(self):
        events = [ev(1, "A"), ev(2, "B"), ev(3, "A"), ev(4, "C"), ev(5, "B")]
        for batch in batch_events_me(events):
            keys = [e.key for e in batch]
            assert len(keys) == len(set(keys))

    def test_batches_are_maximal(self):
        """A batch only ends when the *next* event would repeat a key."""
        events = [ev(1, "A"), ev(2, "B"), ev(3, "A"), ev(4, "B")]
        batches = list(batch_events_me(events))
        assert [[e.key for e in b] for b in batches] == [["A", "B"], ["A", "B"]]

    def test_order_preserved(self):
        events = [ev(t, k) for t, k in [(1, "A"), (2, "A"), (3, "A")]]
        batches = list(batch_events_me(events))
        flattened = [e for batch in batches for e in batch]
        assert flattened == events

    def test_distinct_keys_one_batch(self):
        events = [ev(1, "A"), ev(2, "B"), ev(3, "C")]
        assert len(list(batch_events_me(events))) == 1

    def test_empty(self):
        assert list(batch_events_me([])) == []

    @settings(max_examples=40)
    @given(
        keys=st.lists(st.sampled_from(["A", "B", "C", "D"]), max_size=40)
    )
    def test_batching_properties(self, keys):
        events = [ev(i + 1, key) for i, key in enumerate(keys)]
        batches = list(batch_events_me(events))
        # Concatenation reproduces the stream.
        assert [e for b in batches for e in b] == events
        for batch in batches:
            batch_keys = [e.key for e in batch]
            assert len(batch_keys) == len(set(batch_keys))
        # Maximality: the first event of batch i+1 repeats a key of batch i.
        for left, right in zip(batches, batches[1:]):
            assert right[0].key in {e.key for e in left}


class TestIngest:
    @pytest.fixture
    def network(self, tmp_path):
        with closing(FabricNetwork(tmp_path, config=fabric_config())) as net:
            net.install(SupplyChainChaincode())
            yield net

    @pytest.fixture
    def workload(self):
        return generate(
            WorkloadConfig(
                name="t", n_shipments=3, n_containers=2, n_trucks=1,
                events_per_key=8, t_max=400, seed=2,
            )
        )

    def test_se_one_tx_per_event(self, network, workload):
        gateway = network.gateway("ingestor")
        report = ingest(gateway, workload.events, "supplychain", strategy="se")
        assert report.transactions == len(workload.events)
        assert report.events == len(workload.events)
        assert report.seconds > 0

    def test_me_fewer_transactions(self, network, workload):
        gateway = network.gateway("ingestor")
        report = ingest(gateway, workload.events, "supplychain", strategy="me")
        assert report.transactions < len(workload.events)

    @pytest.mark.parametrize("strategy", ["se", "me"])
    def test_m2_commits_what_plain_commits(
        self, network, workload, tmp_path_factory, strategy
    ):
        """Section VII-B3: M2 adds no transaction -- the key transformation
        happens inside the one transaction each batch already is."""
        plain = ingest(network.gateway("ingestor"), workload.events, "supplychain",
                       strategy=strategy)
        with closing(FabricNetwork(tmp_path_factory.mktemp("m2"), config=fabric_config())) as m2:
            m2.install(M2SupplyChainChaincode(u=100))
            report = ingest(m2.gateway("ingestor"), workload.events,
                            M2SupplyChainChaincode.name, strategy=strategy)
            committed = m2.metrics.snapshot().counter(metric_names.TXS_COMMITTED)
        assert report.events == plain.events == len(workload.events)
        assert report.transactions == plain.transactions == committed
        assert committed == network.metrics.snapshot().counter(metric_names.TXS_COMMITTED)

    def test_history_complete_after_me(self, network, workload):
        gateway = network.gateway("ingestor")
        ingest(gateway, workload.events, "supplychain", strategy="me")
        for key, events in workload.events_by_key().items():
            history = [
                entry.value["t"]
                for entry in network.ledger.get_history_for_key(key)
            ]
            assert history == [e.time for e in events]

    def test_unsorted_input_rejected(self, network):
        events = [ev(5, "A"), ev(1, "B")]
        with pytest.raises(WorkloadError, match="sorted"):
            ingest(network.gateway("g"), events, "supplychain")

    def test_unknown_strategy_rejected(self, network):
        with pytest.raises(WorkloadError, match="unknown ingestion"):
            ingest(network.gateway("g"), [], "supplychain", strategy="batch")
