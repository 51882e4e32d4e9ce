"""Tests for the solo orderer: batch cutting and the hash chain."""

from __future__ import annotations

from contextlib import closing

import pytest

from repro.common.config import BlockCuttingConfig
from repro.common.errors import ChaincodeError, OrdererHaltedError
from repro.fabric.block import GENESIS_PREVIOUS_HASH, RWSet, Transaction
from repro.fabric.network import FabricNetwork
from repro.fabric.orderer import SoloOrderer
from tests.helpers import KeyValueChaincode


def make_tx(tx_id: str) -> Transaction:
    rw_set = RWSet()
    rw_set.add_write(f"key-{tx_id}", tx_id)
    return Transaction(
        tx_id=tx_id, chaincode="cc", creator="c", timestamp=0, rw_set=rw_set
    )


class TestBatchCutting:
    def test_cuts_at_max_message_count(self):
        blocks = []
        orderer = SoloOrderer(BlockCuttingConfig(max_message_count=3))
        orderer.register_consumer(blocks.append)
        for i in range(7):
            orderer.submit(make_tx(f"t{i}"))
        assert len(blocks) == 2
        assert [len(b.transactions) for b in blocks] == [3, 3]
        assert len(orderer.flush().transactions) == 1

    def test_flush_cuts_partial_batch(self):
        blocks = []
        orderer = SoloOrderer(BlockCuttingConfig(max_message_count=10))
        orderer.register_consumer(blocks.append)
        orderer.submit(make_tx("t0"))
        orderer.flush()
        assert len(blocks) == 1
        assert orderer.flush() is None

    def test_flush_empty_is_noop(self):
        orderer = SoloOrderer()
        assert orderer.flush() is None


class TestHashChain:
    def test_block_numbers_sequential(self):
        blocks = []
        orderer = SoloOrderer(BlockCuttingConfig(max_message_count=1))
        orderer.register_consumer(blocks.append)
        for i in range(3):
            orderer.submit(make_tx(f"t{i}"))
        assert [b.number for b in blocks] == [0, 1, 2]

    def test_chain_links(self):
        blocks = []
        orderer = SoloOrderer(BlockCuttingConfig(max_message_count=1))
        orderer.register_consumer(blocks.append)
        for i in range(3):
            orderer.submit(make_tx(f"t{i}"))
        assert blocks[0].header.previous_hash == GENESIS_PREVIOUS_HASH
        assert blocks[1].header.previous_hash == blocks[0].header.hash()
        assert blocks[2].header.previous_hash == blocks[1].header.hash()

    def test_data_hash_valid(self):
        blocks = []
        orderer = SoloOrderer(BlockCuttingConfig(max_message_count=2))
        orderer.register_consumer(blocks.append)
        orderer.submit(make_tx("t0"))
        orderer.submit(make_tx("t1"))
        blocks[0].verify_data_hash()

    def test_multiple_consumers_all_receive(self):
        received_a, received_b = [], []
        orderer = SoloOrderer(BlockCuttingConfig(max_message_count=1))
        orderer.register_consumer(received_a.append)
        orderer.register_consumer(received_b.append)
        orderer.submit(make_tx("t0"))
        assert len(received_a) == len(received_b) == 1


class TestFailedCommit:
    """A block that fails to commit halts the orderer: no later block is
    cut against a head the ledger never committed."""

    def test_consumer_failure_refuses_every_later_submit(self):
        def refuse(block):
            raise ValueError("commit failed")

        orderer = SoloOrderer(BlockCuttingConfig(max_message_count=1))
        orderer.register_consumer(refuse)
        with pytest.raises(ValueError, match="commit failed"):
            orderer.submit(make_tx("t0"))
        for tx_id in ("t1", "t2"):
            with pytest.raises(OrdererHaltedError, match="block 0 failed to commit"):
                orderer.submit(make_tx(tx_id))
        assert orderer.flush() is None

    def test_unencodable_value_does_not_wedge_later_submits(self, tmp_path):
        """A value the ledger cannot store -- a set, an ``object()``, a
        dict whose keys do not sort -- is refused at submit, before it
        reaches the orderer: the height does not move and the next submit
        commits with no reopen."""
        with closing(FabricNetwork(tmp_path)) as network:
            network.install(KeyValueChaincode())
            gateway = network.gateway("writer")
            for timestamp, value in enumerate([{1, 2}, object(), {1: "a", "1": "b"}], start=1):
                with pytest.raises(ChaincodeError, match="cannot store"):
                    gateway.submit_transaction("kv", "put", ["a", value], timestamp=timestamp)
                gateway.flush()
                assert network.ledger.height == 0
            gateway.submit_transaction("kv", "put", ["b", 1], timestamp=4)
            gateway.flush()
            assert network.ledger.height == 1
            assert network.ledger.get_state("b") == 1
            assert network.ledger.get_state("a") is None
            network.ledger.verify_chain()
