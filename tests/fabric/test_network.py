"""End-to-end tests of the single-peer network: the full transaction
pipeline, ledger queries, recovery, and identity handling."""

from __future__ import annotations

from contextlib import closing
from typing import List

import pytest

from repro.common.config import BlockCuttingConfig, FabricConfig, StateDbConfig
from repro.common.errors import EndorsementError
from repro.fabric.block import MVCC_READ_CONFLICT
from repro.fabric.chaincode import (
    Chaincode,
    ChaincodeError,
    ChaincodeStub,
)
from repro.fabric.identity import MSP
from repro.fabric.ledger import Ledger
from repro.fabric.network import FabricNetwork
from tests.helpers import KeyValueChaincode


@pytest.fixture
def network(tmp_path):
    config = FabricConfig(block_cutting=BlockCuttingConfig(max_message_count=3))
    with closing(FabricNetwork(tmp_path, config=config)) as network:
        network.install(KeyValueChaincode())
        yield network


class TestSubmitPath:
    def test_submit_and_read_back(self, network):
        gateway = network.gateway("alice")
        gateway.submit_transaction("kv", "put", ["k", {"qty": 5}], timestamp=1)
        gateway.flush()
        assert network.ledger.get_state("k") == {"qty": 5}

    def test_block_cut_at_batch_size(self, network):
        gateway = network.gateway("alice")
        for i in range(3):
            gateway.submit_transaction("kv", "put", [f"k{i}", i], timestamp=i)
        assert network.ledger.height == 1  # cut without explicit flush

    def test_unknown_chaincode_rejected(self, network):
        gateway = network.gateway("alice")
        with pytest.raises(EndorsementError, match="not installed"):
            gateway.submit_transaction("nope", "put", ["k", "v"])

    def test_chaincode_error_surfaces(self, network):
        gateway = network.gateway("alice")
        with pytest.raises(EndorsementError, match="unknown function"):
            gateway.submit_transaction("kv", "frobnicate", [])

    def test_delete_state(self, network):
        gateway = network.gateway("alice")
        gateway.submit_transaction("kv", "put", ["k", "v"], timestamp=1)
        gateway.submit_transaction("kv", "delete", ["k"], timestamp=2)
        gateway.flush()
        assert network.ledger.get_state("k") is None

    def test_one_state_per_key_per_tx(self, network):
        """A transaction writing one key twice persists only the last value
        and produces a single history entry (Section II)."""
        gateway = network.gateway("alice")
        gateway.submit_transaction(
            "kv", "put_many", [["k", "first"], ["k", "second"]], timestamp=1
        )
        gateway.flush()
        history = [e.value for e in network.ledger.get_history_for_key("k")]
        assert history == ["second"]


class TestQueries:
    def test_history_in_commit_order(self, network):
        gateway = network.gateway("alice")
        for i in range(5):
            gateway.submit_transaction("kv", "put", ["k", f"v{i}"], timestamp=i)
        gateway.flush()
        history = [e.value for e in network.ledger.get_history_for_key("k")]
        assert history == [f"v{i}" for i in range(5)]

    def test_history_includes_deletes(self, network):
        gateway = network.gateway("alice")
        gateway.submit_transaction("kv", "put", ["k", "v"], timestamp=1)
        gateway.submit_transaction("kv", "delete", ["k"], timestamp=2)
        gateway.flush()
        entries = list(network.ledger.get_history_for_key("k"))
        assert [e.is_delete for e in entries] == [False, True]

    def test_range_scan(self, network):
        gateway = network.gateway("alice")
        for key in ("ship-2", "ship-1", "truck-1", "ship-3"):
            gateway.submit_transaction("kv", "put", [key, key], timestamp=1)
        gateway.flush()
        keys = [k for k, _ in network.ledger.state_db.get_state_by_range("ship-", "ship-\xff")]
        assert keys == ["ship-1", "ship-2", "ship-3"]


class TestFingerprint:
    @staticmethod
    def put_many(network, count, start=0):
        gateway = network.gateway("writer")
        for i in range(start, start + count):
            gateway.submit_transaction("kv", "put", [f"k{i}", i], timestamp=i + 1)
        gateway.flush()

    def test_fingerprint_changes_with_state(self, network):
        self.put_many(network, 4)
        before = network.ledger.state_fingerprint()
        self.put_many(network, 4, start=10)
        assert network.ledger.state_fingerprint() != before

    def test_fingerprint_stable_for_same_state(self, network):
        self.put_many(network, 4)
        assert network.ledger.state_fingerprint() == network.ledger.state_fingerprint()


class TestIntegrityAndRecovery:
    def test_verify_chain(self, network):
        gateway = network.gateway("alice")
        for i in range(7):
            gateway.submit_transaction("kv", "put", [f"k{i}", i], timestamp=i)
        gateway.flush()
        network.ledger.verify_chain()

    def test_ledger_reopen_recovers_everything(self, tmp_path):
        config = FabricConfig(block_cutting=BlockCuttingConfig(max_message_count=2))
        network = FabricNetwork(tmp_path, config=config)
        network.install(KeyValueChaincode())
        gateway = network.gateway("alice")
        for i in range(6):
            gateway.submit_transaction("kv", "put", ["k", f"v{i}"], timestamp=i)
        gateway.flush()
        network.close()

        reopened = Ledger(tmp_path)
        assert reopened.height == 3
        assert reopened.get_state("k") == "v5"
        history = [e.value for e in reopened.get_history_for_key("k")]
        assert history == [f"v{i}" for i in range(6)]
        reopened.verify_chain()
        reopened.close()

    def test_lsm_backed_state_db(self, tmp_path):
        config = FabricConfig(state_db=StateDbConfig(backend="lsm"))
        with closing(FabricNetwork(tmp_path, config=config)) as network:
            network.install(KeyValueChaincode())
            gateway = network.gateway("alice")
            gateway.submit_transaction("kv", "put", ["k", "v"], timestamp=1)
            gateway.flush()
            assert network.ledger.get_state("k") == "v"


class TestMVCCEndToEnd:
    def test_concurrent_read_write_conflict(self, tmp_path):
        """Two txs endorsed against the same state, both reading a key one
        of them writes: the second to commit is invalidated."""
        config = FabricConfig(block_cutting=BlockCuttingConfig(max_message_count=10))
        with closing(FabricNetwork(tmp_path, config=config)) as network:
            network.install(_ReadModifyWriteChaincode())
            gateway = network.gateway("alice")
            gateway.submit_transaction("rmw", "init", ["counter"], timestamp=0)
            gateway.flush()
            # Endorse both increments before either commits.
            gateway.submit_transaction("rmw", "increment", ["counter"], timestamp=1)
            gateway.submit_transaction("rmw", "increment", ["counter"], timestamp=2)
            gateway.flush()
            # First increment valid, second hit the intra-block MVCC check.
            assert network.ledger.get_state("counter") == 1


class TestMSP:
    def test_enroll_is_idempotent(self):
        msp = MSP()
        alice1 = msp.enroll("alice")
        alice2 = msp.enroll("alice")
        assert alice1 is alice2

    def test_sign_verify(self):
        identity = MSP().enroll("alice")
        signature = identity.sign(b"payload")
        assert identity.verify(b"payload", signature)
        assert not identity.verify(b"tampered", signature)


class _ReadModifyWriteChaincode:
    """Test chaincode: classic read-modify-write counter."""

    name = "rmw"

    def invoke(self, stub, fn, args):
        (key,) = args
        if fn == "init":
            stub.put_state(key, 0)
            return 0
        if fn == "increment":
            current = stub.get_state(key) or 0
            stub.put_state(key, current + 1)
            return current + 1
        raise ValueError(fn)


class CounterChaincode(Chaincode):
    """Read-modify-write: the shape that actually conflicts under MVCC."""

    name = "counter"

    def invoke(self, stub: ChaincodeStub, fn: str, args: List) -> object:
        if fn == "incr":
            (key,) = args
            current = stub.get_state(key) or 0
            stub.put_state(key, current + 1)
            return current + 1
        raise ChaincodeError(f"unknown function {fn!r}")


def test_conflict_without_retries_stays_invalid(tmp_path):
    """Two clients incrementing the same counter inside one block:
    both endorse against the same committed version and only the first
    survives validation; the loser stays in its block, invalidated."""
    config = FabricConfig(block_cutting=BlockCuttingConfig(max_message_count=2))
    network = FabricNetwork(tmp_path / "net", config=config)
    network.install(CounterChaincode())
    writer_a = network.gateway("alice")
    writer_b = network.gateway("bob")
    writer_a.submit_transaction("counter", "incr", ["c"], timestamp=1)
    # Both endorsed against version None; this submit cuts the block.
    result = writer_b.submit_transaction("counter", "incr", ["c"], timestamp=2)
    codes = {
        tx.tx_id: tx.validation_code
        for block in network.ledger.block_store.iter_blocks()
        for tx in block.transactions
    }
    assert codes[result.tx_id] == MVCC_READ_CONFLICT
    assert network.ledger.get_state("c") == 1
    network.close()
