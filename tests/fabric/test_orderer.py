"""Tests for the solo orderer: batch cutting and the hash chain."""

from __future__ import annotations

from repro.common.config import BlockCuttingConfig
from repro.fabric.block import GENESIS_PREVIOUS_HASH, RWSet, Transaction
from repro.fabric.orderer import SoloOrderer


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
        assert orderer.pending_count == 1

    def test_flush_cuts_partial_batch(self):
        blocks = []
        orderer = SoloOrderer(BlockCuttingConfig(max_message_count=10))
        orderer.register_consumer(blocks.append)
        orderer.submit(make_tx("t0"))
        orderer.flush()
        assert len(blocks) == 1
        assert orderer.pending_count == 0

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
