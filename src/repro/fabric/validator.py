"""Commit-time validation: endorsement checks and MVCC read conflicts.

Fabric validates each transaction in block order.  A transaction is
invalidated (``MVCC_READ_CONFLICT``) if any key it read during simulation
has since been written -- either by a transaction committed in an earlier
block or by an *earlier transaction in the same block*.  Invalid
transactions stay in the block (the chain is append-only) but their
writes are not applied.

:class:`ParallelValidator` exploits the structure of that check: a
transaction's outcome depends only on transactions that share a state
key with it.  Partitioning a block's transactions into key-disjoint
conflict groups (union-find over each RWSet's reads+writes) and
validating groups concurrently therefore produces byte-identical
validation codes to the serial pass -- within a group block order is
preserved, across groups no ``writes_so_far`` entry is ever consulted.
The recorded read/write sets are the validator's only input: a read that
never enters a read set (``get_history_for_key``) is checked by neither
the serial nor the parallel pass, so it can change no validation code.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.fabric.block import (
    BAD_SIGNATURE,
    MVCC_READ_CONFLICT,
    VALID,
    Block,
    Transaction,
    Version,
)

#: Returns the committed version of a key, or None if absent.
VersionLookup = Callable[[str], Optional[Version]]
#: Verifies the endorsement signature on a transaction.
SignatureCheck = Callable[[Transaction], bool]


class Validator:
    """Marks each transaction in a block VALID or invalid in place."""

    def __init__(
        self,
        version_lookup: VersionLookup,
        signature_check: Optional[SignatureCheck] = None,
    ) -> None:
        self._version_lookup = version_lookup
        self._signature_check = signature_check

    def validate_block(self, block: Block) -> int:
        """Set ``validation_code`` on every transaction; return #valid.

        Uses a running view of writes applied earlier in this block so
        intra-block conflicts are caught exactly as Fabric does.
        """
        writes_so_far: Dict[str, Version] = {}
        valid_count = 0
        for tx_num, tx in enumerate(block.transactions):
            code = self._validate_tx(tx, writes_so_far)
            tx.validation_code = code
            if code == VALID:
                valid_count += 1
                version = (block.number, tx_num)
                for key in tx.rw_set.writes:
                    writes_so_far[key] = version
        return valid_count

    def _validate_tx(
        self, tx: Transaction, writes_so_far: Dict[str, Version]
    ) -> str:
        if self._signature_check is not None and not self._signature_check(tx):
            return BAD_SIGNATURE
        for read in tx.rw_set.reads:
            if read.key in writes_so_far:
                return MVCC_READ_CONFLICT
            committed = self._version_lookup(read.key)
            if committed != read.version:
                return MVCC_READ_CONFLICT
        return VALID


class _UnionFind:
    """Path-compressing union-find over transaction indices."""

    def __init__(self, size: int) -> None:
        self._parent = list(range(size))

    def find(self, index: int) -> int:
        root = index
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[index] != root:
            self._parent[index], index = root, self._parent[index]
        return root

    def union(self, left: int, right: int) -> None:
        root_left, root_right = self.find(left), self.find(right)
        if root_left != root_right:
            # Deterministic representative: the smaller index wins, so
            # group composition is independent of union order.
            if root_left < root_right:
                self._parent[root_right] = root_left
            else:
                self._parent[root_left] = root_right


class ParallelValidator(Validator):
    """Validates key-disjoint conflict groups of a block concurrently.

    Serial equivalence: ``_validate_tx`` consults ``writes_so_far`` only
    for the transaction's own read keys, and ``writes_so_far`` gains
    only write keys of earlier valid transactions.  Any two
    transactions coupled through it therefore share a key and land in
    the same group, where they are validated in block order with their
    *global* indices (versions stay ``(block, tx_index)``).  Everything
    else is independent and order-insensitive.
    """

    def __init__(
        self,
        version_lookup: VersionLookup,
        signature_check: Optional[SignatureCheck] = None,
        workers: int = 1,
    ) -> None:
        super().__init__(version_lookup, signature_check)
        from repro.temporal.executor import build_executor

        self._workers = max(1, workers)
        self._executor = build_executor(self._workers)

    def validate_block(self, block: Block) -> int:
        if self._workers == 1 or len(block.transactions) < 2:
            return super().validate_block(block)
        groups = self._conflict_groups(block)
        if len(groups) == 1:
            return super().validate_block(block)
        number = block.number
        counts = self._executor.map(
            lambda group: self._validate_group(number, group), groups
        )
        return sum(counts)

    def _validate_group(
        self, block_number: int, group: List[Tuple[int, Transaction]]
    ) -> int:
        """Serial validation of one group, in block order, with global
        transaction indices -- the exact loop of the serial validator
        restricted to the group's members."""
        writes_so_far: Dict[str, Version] = {}
        valid_count = 0
        for tx_num, tx in group:
            code = self._validate_tx(tx, writes_so_far)
            tx.validation_code = code
            if code == VALID:
                valid_count += 1
                version = (block_number, tx_num)
                for key in tx.rw_set.writes:
                    writes_so_far[key] = version
        return valid_count

    def _conflict_groups(
        self, block: Block
    ) -> List[List[Tuple[int, Transaction]]]:
        """Partition the block's transactions into key-disjoint groups
        (union-find over each RWSet's read and write keys)."""
        txs = block.transactions
        uf = _UnionFind(len(txs))
        owner: Dict[str, int] = {}
        for index, tx in enumerate(txs):
            keys = {read.key for read in tx.rw_set.reads}
            keys.update(tx.rw_set.writes)
            for key in sorted(keys):
                if key in owner:
                    uf.union(owner[key], index)
                else:
                    owner[key] = index
        grouped: Dict[int, List[Tuple[int, Transaction]]] = {}
        for index, tx in enumerate(txs):
            grouped.setdefault(uf.find(index), []).append((index, tx))
        return [grouped[root] for root in sorted(grouped)]
