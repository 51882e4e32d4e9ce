"""Dependency-aware parallel validation: conflict grouping and parity
with the serial validator.

The invariant everything here defends: ``ParallelValidator`` must
produce byte-identical validation codes to the serial pass for every
block, at every worker count.
"""

from __future__ import annotations

import random

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
from repro.fabric.validator import ParallelValidator, Validator


def make_tx(tx_id, reads=(), writes=(), chaincode="cc"):
    rw_set = RWSet()
    for key, version in reads:
        rw_set.add_read(key, version)
    for key, value in writes:
        rw_set.add_write(key, value)
    return Transaction(
        tx_id=tx_id, chaincode=chaincode, creator="c", timestamp=0, rw_set=rw_set
    )


def make_block(txs, number=0):
    header = BlockHeader(number, GENESIS_PREVIOUS_HASH, Block.compute_data_hash(txs))
    return Block(header, txs)


def group_indices(validator, block):
    return [
        [index for index, _tx in group]
        for group in validator._conflict_groups(block)
    ]


class TestValidateBlockEdgeCases:
    """Serial semantics pinned before parallelizing (the satellite)."""

    def test_empty_block_counts_zero_valid(self):
        validator = Validator(version_lookup={}.get)
        assert validator.validate_block(make_block([])) == 0
        parallel = ParallelValidator(version_lookup={}.get, workers=4)
        assert parallel.validate_block(make_block([])) == 0

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


class TestConflictGroups:
    def validator(self):
        return ParallelValidator(version_lookup={}.get, workers=2)

    def test_disjoint_transactions_get_singleton_groups(self):
        block = make_block(
            [make_tx(f"t{i}", writes=[(f"k{i}", i)]) for i in range(4)]
        )
        assert group_indices(self.validator(), block) == [[0], [1], [2], [3]]

    def test_shared_keys_group_transitively(self):
        block = make_block(
            [
                make_tx("t0", writes=[("a", 1)]),
                make_tx("t1", reads=[("a", None)], writes=[("b", 1)]),
                make_tx("t2", reads=[("b", None)]),
                make_tx("t3", writes=[("z", 1)]),
            ]
        )
        assert group_indices(self.validator(), block) == [[0, 1, 2], [3]]

    def test_groups_preserve_block_order_within_a_group(self):
        block = make_block(
            [
                make_tx("t0", writes=[("a", 1)]),
                make_tx("t1", writes=[("b", 1)]),
                make_tx("t2", reads=[("a", None)]),
                make_tx("t3", reads=[("b", None)]),
            ]
        )
        assert group_indices(self.validator(), block) == [[0, 2], [1, 3]]


def random_block(seed, tx_count=40, key_space=8):
    """A deterministic block mixing valid reads, stale reads and writes
    over a small key space, dense enough to force intra-block coupling."""
    rng = random.Random(seed)
    committed = {f"k{i}": (1, i) for i in range(key_space)}
    txs = []
    for index in range(tx_count):
        reads = []
        writes = []
        for _ in range(rng.randint(0, 2)):
            key = f"k{rng.randrange(key_space)}"
            version = committed[key] if rng.random() < 0.7 else (0, 99)
            reads.append((key, version))
        for _ in range(rng.randint(0, 2)):
            writes.append((f"k{rng.randrange(key_space)}", index))
        txs.append(make_tx(f"t{index}", reads=reads, writes=writes))
    return make_block(txs, number=7), committed


class TestParallelParity:
    @pytest.mark.parametrize("workers", [1, 2, 8])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_codes_match_serial_for_random_blocks(self, workers, seed):
        serial_block, committed = random_block(seed)
        serial = Validator(version_lookup=committed.get)
        serial_valid = serial.validate_block(serial_block)
        expected = [tx.validation_code for tx in serial_block.transactions]
        assert MVCC_READ_CONFLICT in expected  # non-vacuous workload

        parallel_block, _ = random_block(seed)
        parallel = ParallelValidator(
            version_lookup=committed.get, workers=workers
        )
        assert parallel.validate_block(parallel_block) == serial_valid
        actual = [tx.validation_code for tx in parallel_block.transactions]
        assert actual == expected

    @pytest.mark.parametrize("workers", [2, 8])
    def test_parity_holds_under_signature_rejection(self, workers):
        def check(tx):
            return not tx.tx_id.endswith("3")

        serial_block, committed = random_block(5)
        Validator(
            version_lookup=committed.get, signature_check=check
        ).validate_block(serial_block)
        expected = [tx.validation_code for tx in serial_block.transactions]
        assert BAD_SIGNATURE in expected

        parallel_block, _ = random_block(5)
        ParallelValidator(
            version_lookup=committed.get,
            signature_check=check,
            workers=workers,
        ).validate_block(parallel_block)
        actual = [tx.validation_code for tx in parallel_block.transactions]
        assert actual == expected
