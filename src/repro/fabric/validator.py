"""Commit-time validation: endorsement checks and MVCC read conflicts.

Fabric validates each transaction in block order.  A transaction is
invalidated (``MVCC_READ_CONFLICT``) if any key it read during simulation
has since been written -- either by a transaction committed in an earlier
block or by an *earlier transaction in the same block*.  Invalid
transactions stay in the block (the chain is append-only) but their
writes are not applied.

The recorded read/write sets are the validator's only input; a chaincode
reads state only through ``ChaincodeStub.get_state``, which records every
read it makes.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

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
