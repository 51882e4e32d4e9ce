"""Client-side SDK: submit transactions through the network.

``submit_transaction`` runs the full write path (endorse, order, commit
when a block is cut).  Reads go to the ledger directly
(``network.ledger``), not through chaincode.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.fabric.endorser import Endorser
from repro.fabric.identity import Identity
from repro.fabric.orderer import SoloOrderer


class SubmitResult:
    """Outcome of a submitted transaction."""

    __slots__ = ("tx_id", "response")

    def __init__(self, tx_id: str, response: Any) -> None:
        self.tx_id = tx_id
        self.response = response


class Gateway:
    """A client connection bound to one identity.

    A submit returns before its transaction is validated: the verdict
    (``VALID`` or, for a stale read, ``MVCC_READ_CONFLICT``) is stamped
    when the block holding it commits, and a client learns it from that
    committed block through :meth:`FabricNetwork.on_block
    <repro.fabric.network.FabricNetwork.on_block>`.  An invalidated
    transaction stays in its block; nothing resubmits it.
    """

    def __init__(
        self, endorser: Endorser, orderer: SoloOrderer, identity: Identity
    ) -> None:
        self._endorser = endorser
        self._orderer = orderer
        self._identity = identity

    def submit_transaction(
        self,
        chaincode: str,
        fn: str,
        args: Optional[List[Any]] = None,
        timestamp: int = 0,
    ) -> SubmitResult:
        """Endorse ``fn(args)`` and hand the transaction to the orderer.

        The block containing the transaction commits when the orderer cuts
        it (batch full) or on :meth:`flush`.
        """
        tx, response = self._endorser.endorse(
            chaincode, fn, list(args or []), creator=self._identity.name,
            timestamp=timestamp,
        )
        self._orderer.submit(tx)
        return SubmitResult(tx_id=tx.tx_id, response=response)

    def flush(self) -> None:
        """Force the orderer to cut any pending partial block."""
        self._orderer.flush()
