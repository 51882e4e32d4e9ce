"""Tests for multi-peer replication: convergence, catch-up, divergence
detection."""

from __future__ import annotations

import pytest

from repro.fabric.chaincode import KeyValueChaincode
from repro.fabric.network import FabricNetwork
from tests.helpers import fabric_config


@pytest.fixture
def network(tmp_path):
    with FabricNetwork(tmp_path, config=fabric_config(max_message_count=4)) as net:
        net.install(KeyValueChaincode())
        yield net


def put_many(network, count, prefix="k", start=0):
    gateway = network.gateway("writer")
    for i in range(start, start + count):
        gateway.submit_transaction("kv", "put", [f"{prefix}{i}", i], timestamp=i + 1)
    gateway.flush()


class TestConvergence:
    def test_two_peers_reach_identical_state(self, network):
        peer1 = network.add_peer("peer1")
        put_many(network, 20)
        assert peer1.ledger.height == network.peer.ledger.height
        assert (
            peer1.ledger.state_fingerprint()
            == network.peer.ledger.state_fingerprint()
        )

    def test_replica_answers_queries(self, network):
        peer1 = network.add_peer("peer1")
        put_many(network, 10)
        assert peer1.ledger.get_state("k3") == 3
        history = [e.value for e in peer1.ledger.get_history_for_key("k3")]
        assert history == [3]

    def test_replica_chain_verifies(self, network):
        peer1 = network.add_peer("peer1")
        put_many(network, 10)
        peer1.ledger.verify_chain()

    def test_three_peers(self, network):
        peers = [network.add_peer(f"peer{i}") for i in (1, 2)]
        put_many(network, 12)
        fingerprints = {
            peer.ledger.state_fingerprint() for peer in [network.peer, *peers]
        }
        assert len(fingerprints) == 1


class TestLateJoin:
    def test_late_peer_catches_up(self, network):
        put_many(network, 20)
        peer1 = network.add_peer("peer1")  # joins after 20 commits
        assert peer1.ledger.height == network.peer.ledger.height
        assert (
            peer1.ledger.state_fingerprint()
            == network.peer.ledger.state_fingerprint()
        )
        # ... and keeps up with new blocks afterwards.
        put_many(network, 8, start=100)
        assert peer1.ledger.get_state("k105") == 105

    def test_duplicate_peer_name_rejected(self, network):
        network.add_peer("peer1")
        with pytest.raises(ValueError, match="already exists"):
            network.add_peer("peer1")

    def test_sync_from_returns_replayed_count(self, network):
        put_many(network, 8)
        height = network.peer.ledger.height
        peer1 = network.add_peer("peer1")
        put_many(network, 4, start=50)
        # peer1 already consumed everything; a manual sync finds nothing.
        assert peer1.sync_from(network.peer.ledger) == 0
        assert peer1.ledger.height > height


class TestFingerprint:
    def test_fingerprint_changes_with_state(self, network):
        put_many(network, 4)
        before = network.peer.ledger.state_fingerprint()
        put_many(network, 4, start=10)
        assert network.peer.ledger.state_fingerprint() != before

    def test_fingerprint_stable_for_same_state(self, network):
        put_many(network, 4)
        assert (
            network.peer.ledger.state_fingerprint()
            == network.peer.ledger.state_fingerprint()
        )

    def test_diverged_replica_detected(self, network, tmp_path):
        """Tampering with a replica's state-db shows up as a fingerprint
        mismatch even though its chain is untouched."""
        peer1 = network.add_peer("peer1")
        put_many(network, 8)
        from repro.fabric.block import KVWrite

        peer1.ledger.state_db.apply_write([(KVWrite("k3", "tampered"), (0, 0), None)])
        assert (
            peer1.ledger.state_fingerprint()
            != network.peer.ledger.state_fingerprint()
        )
