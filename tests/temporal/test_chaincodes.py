"""Tests for the supply-chain chaincodes (plain, M2-transformed, M1 index)."""

from __future__ import annotations

from contextlib import closing

import pytest

from repro.common.errors import EndorsementError
from repro.fabric.network import FabricNetwork
from repro.temporal.chaincodes import (
    M1IndexChaincode,
    M2SupplyChainChaincode,
    SupplyChainChaincode,
)
from repro.temporal.intervals import TimeInterval
from repro.temporal.keys import decode_interval_key, encode_interval_key
from tests.helpers import fabric_config


@pytest.fixture
def network(tmp_path):
    with closing(FabricNetwork(tmp_path, config=fabric_config(max_message_count=4))) as net:
        net.install(SupplyChainChaincode())
        net.install(M2SupplyChainChaincode(u=100))
        net.install(M1IndexChaincode())
        yield net


class TestSupplyChainChaincode:
    def test_record_event_stores_under_entity_key(self, network):
        gateway = network.gateway("client")
        gateway.submit_transaction(
            "supplychain", "record_event", ["S00001", "C00001", 42, "l"], timestamp=42
        )
        gateway.flush()
        assert network.ledger.get_state("S00001") == {"o": "C00001", "t": 42, "e": "l"}

    def test_record_events_batch(self, network):
        gateway = network.gateway("client")
        gateway.submit_transaction(
            "supplychain",
            "record_events",
            [["S00001", "C00001", 10, "l"], ["S00002", "C00001", 10, "l"]],
            timestamp=10,
        )
        gateway.flush()
        assert network.ledger.get_state("S00001")["t"] == 10
        assert network.ledger.get_state("S00002")["t"] == 10

    def test_batch_with_repeated_key_rejected(self, network):
        gateway = network.gateway("client")
        with pytest.raises(EndorsementError, match="repeats key"):
            gateway.submit_transaction(
                "supplychain",
                "record_events",
                [["S00001", "C00001", 10, "l"], ["S00001", "C00001", 20, "ul"]],
            )


class TestM2Chaincode:
    def test_key_transformed_to_interval_key(self, network):
        gateway = network.gateway("client")
        gateway.submit_transaction(
            "supplychain-m2", "record_event", ["S00001", "C00001", 42, "l"], timestamp=42
        )
        gateway.flush()
        # The base key does not exist...
        assert network.ledger.get_state("S00001") is None
        # ...but the transformed key does, under the interval containing 42.
        composite = encode_interval_key("S00001", TimeInterval(0, 100))
        assert network.ledger.get_state(composite)["t"] == 42

    def test_boundary_timestamp_lands_in_left_interval(self, network):
        gateway = network.gateway("client")
        gateway.submit_transaction(
            "supplychain-m2", "record_event", ["S00001", "C00001", 100, "l"],
            timestamp=100,
        )
        gateway.flush()
        composite = encode_interval_key("S00001", TimeInterval(0, 100))
        assert network.ledger.get_state(composite) is not None

    def test_state_db_grows_per_interval(self, network):
        """n intervals -> n states for one base key (Section VII-B)."""
        gateway = network.gateway("client")
        for time in (10, 150, 320):
            gateway.submit_transaction(
                "supplychain-m2",
                "record_event",
                ["S00001", "C00001", time, "l"],
                timestamp=time,
            )
        gateway.flush()
        states = list(network.ledger.state_db.get_state_by_range("S00001", "S00002"))
        assert len(states) == 3
        intervals = [decode_interval_key(key)[1].start for key, _ in states]
        assert intervals == [0, 100, 300]

    def test_same_interval_keeps_latest_state(self, network):
        gateway = network.gateway("client")
        gateway.submit_transaction(
            "supplychain-m2", "record_event", ["S00001", "C00001", 10, "l"], timestamp=10
        )
        gateway.submit_transaction(
            "supplychain-m2", "record_event", ["S00001", "C00001", 20, "ul"], timestamp=20
        )
        gateway.flush()
        composite = encode_interval_key("S00001", TimeInterval(0, 100))
        assert network.ledger.get_state(composite)["e"] == "ul"
        # Both states remain in history.
        history = list(network.ledger.get_history_for_key(composite))
        assert [entry.value["t"] for entry in history] == [10, 20]


class TestM1IndexChaincode:
    def test_write_then_clear_leaves_history_only(self, network):
        gateway = network.gateway("client")
        index_key = encode_interval_key("S00001", TimeInterval(0, 100))
        bundle = [{"o": "C00001", "t": 10, "e": "l"}]
        gateway.submit_transaction("m1-index", "write_index", [index_key, bundle])
        gateway.submit_transaction("m1-index", "clear_index", [index_key])
        gateway.flush()
        assert network.ledger.get_state(index_key) is None  # gone from state-db
        history = list(network.ledger.get_history_for_key(index_key))
        assert history[0].value == bundle  # oldest entry is the bundle
        assert history[1].is_delete

    def test_empty_bundle_rejected(self, network):
        gateway = network.gateway("client")
        with pytest.raises(EndorsementError, match="empty event set"):
            gateway.submit_transaction("m1-index", "write_index", ["k\x00a\x00b", []])

    def test_record_run_appends(self, network):
        gateway = network.gateway("client")
        gateway.submit_transaction(
            "m1-index", "record_run", [{"t1": 0, "t2": 500, "u": 100}]
        )
        gateway.flush()
        gateway.submit_transaction(
            "m1-index", "record_run", [{"t1": 500, "t2": 1000, "u": 100}]
        )
        gateway.flush()
        runs = network.ledger.get_state(M1IndexChaincode.META_KEY)
        assert [run["t1"] for run in runs] == [0, 500]
