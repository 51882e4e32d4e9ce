"""Failure injection: corruption and tampering must fail loudly.

A ledger's value is that tampering is detectable; these tests corrupt
files and in-memory structures and assert the right error surfaces (never
a silently wrong answer).
"""

from __future__ import annotations

import pytest

from repro.common.errors import (
    BlockFileError,
    CodecError,
    HashChainError,
    LedgerError,
    SimulatedCrashError,
)
from repro.fabric.block import GENESIS_PREVIOUS_HASH, Block, BlockHeader
from repro.fabric.chaincode import Chaincode
from repro.fabric.ledger import Ledger
from repro.fabric.network import FabricNetwork
from tests.helpers import KeyValueChaincode, fabric_config


@pytest.fixture
def populated(tmp_path):
    network = FabricNetwork(tmp_path / "net", config=fabric_config(max_message_count=2))
    network.install(KeyValueChaincode())
    gateway = network.gateway("writer")
    for i in range(8):
        gateway.submit_transaction("kv", "put", [f"k{i}", i], timestamp=i + 1)
    gateway.flush()
    network.ledger.block_store.sync()  # make all blocks visible on disk
    yield network, tmp_path / "net"
    network.close()


def block_file(path):
    files = sorted((path / "ledger" / "chains").glob("blockfile_*"))
    assert files
    return files[0]


class TestBlockFileCorruption:
    def test_flipped_payload_byte_detected_on_read(self, populated):
        network, path = populated
        file = block_file(path)
        data = bytearray(file.read_bytes())
        # Flip a byte inside a transaction's write set ("k0" appears in the
        # first block's writes); the data hash covers exactly that content.
        position = data.find(b'"k0"') + 1
        assert position > 0
        data[position] ^= 0xFF
        file.write_bytes(bytes(data))
        with pytest.raises((CodecError, LedgerError, KeyError, BlockFileError)):
            # Either the codec rejects the payload or the decoded block
            # fails its data-hash check during chain verification.
            for block in network.ledger.block_store.iter_blocks():
                block.verify_data_hash()

    def test_truncated_block_file_detected(self, populated):
        network, path = populated
        file = block_file(path)
        data = file.read_bytes()
        file.write_bytes(data[: len(data) // 2])
        with pytest.raises((BlockFileError, CodecError)):
            for _ in network.ledger.block_store.iter_blocks():
                pass

    def test_missing_block_file_detected(self, populated):
        network, path = populated
        block_file(path).unlink()
        with pytest.raises(BlockFileError, match="does not exist"):
            network.ledger.block_store.get_block(0)


class TestTampering:
    def test_value_tamper_breaks_data_hash(self, populated):
        network, _ = populated
        block = network.ledger.block_store.get_block(0)
        block.transactions[0].rw_set.add_write("k0", "tampered")
        with pytest.raises(LedgerError, match="data hash"):
            block.verify_data_hash()

    def test_commit_of_unchained_block_rejected(self, populated):
        network, _ = populated
        rogue = Block(
            header=BlockHeader(
                number=network.ledger.height,
                previous_hash=GENESIS_PREVIOUS_HASH,  # wrong link
                data_hash=Block.compute_data_hash([]),
            ),
            transactions=[],
        )
        with pytest.raises(HashChainError):
            network.ledger.commit_block(rogue)

    def test_commit_with_tampered_data_hash_rejected(self, populated):
        network, _ = populated
        rogue = Block(
            header=BlockHeader(
                number=network.ledger.height,
                previous_hash=network.ledger.last_header_hash,
                data_hash=b"\x00" * 32,
            ),
            transactions=[],
        )
        with pytest.raises(LedgerError, match="data hash"):
            network.ledger.commit_block(rogue)

    def test_verify_chain_passes_untampered(self, populated):
        network, _ = populated
        network.ledger.verify_chain()


class TestRecoveryAfterDamage:
    def test_reopen_with_torn_index_tail_recovers_fully(self, populated):
        """A torn block-index tail (crash during append) is repaired on
        reopen by re-indexing the block files -- no committed block lost."""
        network, path = populated
        height = network.ledger.height
        network.close()
        index_file = path / "ledger" / "index" / "blocks.idx"
        data = index_file.read_bytes()
        index_file.write_bytes(data[:-10])
        reopened = Ledger(path)
        assert reopened.height == height
        reopened.verify_chain()
        reopened.close()

    def test_reopen_with_missing_index_rebuilds(self, populated):
        """Deleting the whole index is survivable: it is derived data."""
        network, path = populated
        height = network.ledger.height
        fingerprint = network.ledger.state_fingerprint()
        network.close()
        (path / "ledger" / "index" / "blocks.idx").unlink()
        reopened = Ledger(path)
        assert reopened.height == height
        assert reopened.state_fingerprint() == fingerprint
        reopened.verify_chain()
        reopened.close()

    def test_forged_endorsement_invalidated_at_commit(self, tmp_path):
        """A transaction whose signature does not verify is kept in the
        block but marked BAD_SIGNATURE, and its writes are not applied."""
        network = FabricNetwork(tmp_path, config=fabric_config())
        network.install(KeyValueChaincode())
        gateway = network.gateway("writer")
        result = gateway.submit_transaction("kv", "put", ["k", "honest"], timestamp=1)
        gateway.flush()

        tx, _ = network.endorser.endorse("kv", "put", ["k", "forged"], "mallory", 2)
        tx.signature = b"not-a-valid-signature"
        network.orderer.submit(tx)
        network.orderer.flush()

        assert network.ledger.get_state("k") == "honest"
        history = [e.value for e in network.ledger.get_history_for_key("k")]
        assert history == ["honest"]
        assert result.tx_id != tx.tx_id
        network.close()


class RaisingChaincode(Chaincode):
    """Raises whatever the test hands it, from inside ``invoke``."""

    name = "raising"

    def invoke(self, stub, fn, args):
        raise args[0]


class TestFailuresPropagate:
    """A handler that catches too much would let a simulated crash or a
    programming error pass as an ordinary rejection, or a failed commit
    as a committed block; each of these must reach the caller as the
    very exception raised."""

    @pytest.mark.parametrize(
        "failure",
        [SimulatedCrashError("killed mid-chaincode"), ZeroDivisionError("a bug")],
        ids=["simulated-crash", "programming-error"],
    )
    def test_chaincode_failure_reaches_the_client_unchanged(self, tmp_path, failure):
        network = FabricNetwork(tmp_path, config=fabric_config())
        network.install(RaisingChaincode())
        with pytest.raises(type(failure)) as raised:
            network.gateway("writer").submit_transaction(
                "raising", "go", [failure], timestamp=1
            )
        assert raised.value is failure
        network.close()

    def test_history_index_failure_fails_the_commit(self, tmp_path, monkeypatch):
        network = FabricNetwork(tmp_path, config=fabric_config())
        network.install(KeyValueChaincode())
        failure = OSError("history index unavailable")

        def fail(block):
            raise failure

        monkeypatch.setattr(network.ledger.history_db, "index_block", fail)
        gateway = network.gateway("writer")
        gateway.submit_transaction("kv", "put", ["k", 1], timestamp=1)
        with pytest.raises(OSError) as raised:
            gateway.flush()
        assert raised.value is failure
        assert network.ledger.get_state("k") is None
        network.close()
