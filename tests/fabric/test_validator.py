"""Tests for MVCC validation and endorsement checks."""

from __future__ import annotations

from contextlib import closing

import pytest

from repro.fabric.block import (
    BAD_SIGNATURE,
    GENESIS_PREVIOUS_HASH,
    MVCC_READ_CONFLICT,
    VALID,
    Block,
    BlockHeader,
    RWSet,
    Transaction,
)
from repro.fabric.network import FabricNetwork
from repro.fabric.validator import Validator
from tests.helpers import KeyValueChaincode


def make_tx(tx_id, reads=(), writes=()):
    rw_set = RWSet()
    for key, version in reads:
        rw_set.add_read(key, version)
    for key, value in writes:
        rw_set.add_write(key, value)
    return Transaction(
        tx_id=tx_id, chaincode="cc", creator="c", timestamp=0, rw_set=rw_set
    )


def make_block(txs, number=0):
    header = BlockHeader(number, GENESIS_PREVIOUS_HASH, Block.compute_data_hash(txs))
    return Block(header, txs)


class TestMVCC:
    def test_read_of_matching_version_is_valid(self):
        validator = Validator(version_lookup={"k": (1, 0)}.get)
        block = make_block([make_tx("t0", reads=[("k", (1, 0))])])
        assert validator.validate_block(block) == 1
        assert block.transactions[0].validation_code == VALID

    def test_stale_read_version_conflicts(self):
        validator = Validator(version_lookup={"k": (2, 0)}.get)
        block = make_block([make_tx("t0", reads=[("k", (1, 0))])])
        assert validator.validate_block(block) == 0
        assert block.transactions[0].validation_code == MVCC_READ_CONFLICT

    def test_read_of_absent_key_valid_when_still_absent(self):
        validator = Validator(version_lookup={}.get)
        block = make_block([make_tx("t0", reads=[("k", None)])])
        assert validator.validate_block(block) == 1

    def test_read_of_absent_key_conflicts_when_created(self):
        validator = Validator(version_lookup={"k": (1, 0)}.get)
        block = make_block([make_tx("t0", reads=[("k", None)])])
        assert block.transactions[0].validation_code == "NOT_VALIDATED"
        validator.validate_block(block)
        assert block.transactions[0].validation_code == MVCC_READ_CONFLICT

    def test_intra_block_conflict(self):
        """A tx reading a key written by an earlier tx in the same block
        is invalidated, exactly as in Fabric."""
        validator = Validator(version_lookup={"k": (1, 0)}.get)
        writer = make_tx("t0", writes=[("k", "new")])
        reader = make_tx("t1", reads=[("k", (1, 0))])
        block = make_block([writer, reader], number=5)
        assert validator.validate_block(block) == 1
        assert writer.validation_code == VALID
        assert reader.validation_code == MVCC_READ_CONFLICT

    def test_intra_block_conflict_only_after_writer(self):
        """Order matters: a reader *before* the writer is fine."""
        validator = Validator(version_lookup={"k": (1, 0)}.get)
        reader = make_tx("t0", reads=[("k", (1, 0))])
        writer = make_tx("t1", writes=[("k", "new")])
        block = make_block([reader, writer])
        assert validator.validate_block(block) == 2

    def test_write_only_txs_never_conflict(self):
        validator = Validator(version_lookup={}.get)
        block = make_block(
            [make_tx(f"t{i}", writes=[("k", i)]) for i in range(3)]
        )
        assert validator.validate_block(block) == 3


class TestEdgeCases:
    def test_empty_block_counts_zero_valid(self):
        validator = Validator(version_lookup={}.get)
        assert validator.validate_block(make_block([])) == 0

    def test_same_key_written_twice_in_one_block_both_valid(self):
        """Write-write is not a conflict in Fabric: both writers commit,
        the later transaction's version wins in the state-db."""
        validator = Validator(version_lookup={}.get)
        first = make_tx("t0", writes=[("k", "a")])
        second = make_tx("t1", writes=[("k", "b")])
        block = make_block([first, second], number=3)
        assert validator.validate_block(block) == 2
        assert first.validation_code == VALID
        assert second.validation_code == VALID

    def test_read_after_duplicate_writes_still_conflicts(self):
        validator = Validator(version_lookup={"k": (1, 0)}.get)
        block = make_block(
            [
                make_tx("t0", writes=[("k", "a")]),
                make_tx("t1", writes=[("k", "b")]),
                make_tx("t2", reads=[("k", (1, 0))]),
            ],
            number=4,
        )
        assert validator.validate_block(block) == 2
        assert block.transactions[2].validation_code == MVCC_READ_CONFLICT

    def test_invalid_writer_leaves_no_intra_block_trace(self):
        """An invalidated transaction's writes must not poison later
        reads in the same block."""
        validator = Validator(version_lookup={"k": (2, 0), "j": (1, 0)}.get)
        stale_writer = make_tx(
            "t0", reads=[("k", (1, 0))], writes=[("j", "x")]
        )
        reader = make_tx("t1", reads=[("j", (1, 0))])
        block = make_block([stale_writer, reader], number=5)
        assert validator.validate_block(block) == 1
        assert stale_writer.validation_code == MVCC_READ_CONFLICT
        assert reader.validation_code == VALID


class TestSignatureCheck:
    def test_bad_signature_rejected(self):
        validator = Validator(
            version_lookup={}.get, signature_check=lambda tx: tx.tx_id == "good"
        )
        good = make_tx("good", writes=[("a", 1)])
        bad = make_tx("bad", writes=[("b", 2)])
        block = make_block([good, bad])
        assert validator.validate_block(block) == 1
        assert good.validation_code == VALID
        assert bad.validation_code == BAD_SIGNATURE

    @pytest.mark.parametrize("signature", ["abc", None, 5], ids=["str", "none", "int"])
    def test_a_signature_that_is_not_bytes_is_a_bad_signature(self, tmp_path, signature):
        """A well-framed block handed to ``commit_block`` can carry a
        signature of any decoded type: the endorser's check says no
        instead of raising out of ``hmac.compare_digest``."""
        with closing(FabricNetwork(tmp_path)) as network:
            network.install(KeyValueChaincode())
            endorser = network.endorser
            good, _ = endorser.endorse("kv", "put", ["a", 1], creator="writer", timestamp=1)
            bad, _ = endorser.endorse("kv", "put", ["b", 2], creator="writer", timestamp=2)
            bad.signature = signature
            assert endorser.verify_endorsement(bad) is False
            ledger = network.ledger
            assert ledger.commit_block(make_block([good, bad])) == 1
            assert good.validation_code == VALID
            assert bad.validation_code == BAD_SIGNATURE
            assert ledger.get_state("a") == 1
            assert ledger.get_state("b") is None
            ledger.verify_chain()
