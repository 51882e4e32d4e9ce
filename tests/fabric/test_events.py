"""Tests for chaincode events and block listeners."""

from __future__ import annotations

from contextlib import closing

import pytest

from repro.common.errors import EndorsementError
from repro.fabric.block import Transaction
from repro.fabric.network import FabricNetwork
from tests.helpers import fabric_config


class _EventingChaincode:
    """Chaincode emitting an event per write."""

    name = "eventing"

    def invoke(self, stub, fn, args):
        if fn == "put":
            key, value = args
            stub.put_state(key, value)
            stub.set_event("written", {"key": key})
            return value
        if fn == "double_event":
            stub.set_event("first", 1)
            stub.set_event("second", 2)
            stub.put_state("k", "v")
            return None
        if fn == "bad_event":
            stub.set_event("", None)
            return None
        raise ValueError(fn)


@pytest.fixture
def network(tmp_path):
    with closing(FabricNetwork(tmp_path, config=fabric_config(max_message_count=2))) as net:
        net.install(_EventingChaincode())
        yield net


class TestChaincodeEvents:
    def test_later_event_replaces_earlier(self, network):
        gateway = network.gateway("c")
        gateway.submit_transaction("eventing", "double_event", [], timestamp=1)
        gateway.flush()
        (tx,) = network.ledger.block_store.get_block(0).transactions
        assert (tx.event_name, tx.event_payload) == ("second", 2)

    def test_empty_event_name_rejected(self, network):
        gateway = network.gateway("c")
        with pytest.raises(EndorsementError, match="non-empty"):
            gateway.submit_transaction("eventing", "bad_event", [])

    def test_event_survives_block_serialization(self, network):
        gateway = network.gateway("c")
        gateway.submit_transaction("eventing", "put", ["k", "v"], timestamp=1)
        gateway.flush()
        block = network.ledger.block_store.get_block(0)
        tx = block.transactions[0]
        assert tx.event_name == "written"
        assert tx.event_payload == {"key": "k"}
        restored = Transaction.from_dict(tx.to_dict())
        assert restored.event_name == "written"


class TestBlockListeners:
    def test_block_listener_sees_validated_blocks(self, network):
        heights = []
        network.on_block(lambda block: heights.append(block.number))
        gateway = network.gateway("c")
        for i in range(4):
            gateway.submit_transaction("eventing", "put", [f"k{i}", i], timestamp=i + 1)
        gateway.flush()
        assert heights == [0, 1]
        # Validation codes are final by the time listeners run.
        network.on_block(
            lambda block: [
                tx.validation_code for tx in block.transactions
            ].count("NOT_VALIDATED") == 0
        )
