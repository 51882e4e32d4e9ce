"""A peer node: endorser + committing ledger in one process.

The paper's setup is a single peer with consensus enabled; ours mirrors
that -- one peer that both endorses proposals and commits ordered blocks.
Endorsement signatures are verified at commit via the validator hook.
A peer holds no state beside its ledger: committing a block *is*
``Ledger.commit_block``, and a late peer catches up from blocks alone.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, List, Optional

from repro.common.config import FabricConfig
from repro.common.metrics import NULL_REGISTRY, MetricsRegistry
from repro.fabric.block import Block, Transaction
from repro.fabric.chaincode import Chaincode
from repro.fabric.endorser import Endorser
from repro.fabric.identity import Identity
from repro.fabric.ledger import Ledger
from repro.faults.fs import REAL_FS, FileSystem


class Peer:
    """One simulated Fabric peer."""

    def __init__(
        self,
        path: str | Path,
        identity: Identity,
        config: Optional[FabricConfig] = None,
        metrics: MetricsRegistry = NULL_REGISTRY,
        verify_signatures: bool = True,
        signature_check: Optional[Callable[[Transaction], bool]] = None,
        fs: FileSystem = REAL_FS,
    ) -> None:
        """``signature_check`` overrides the endorsement verification used
        at commit; a secondary peer passes the *endorsing* peer's check
        (it cannot verify signatures under its own identity)."""
        self.identity = identity
        self.ledger = Ledger(path, config=config, metrics=metrics, fs=fs)
        self.endorser = Endorser(
            identity=identity,
            state_db=self.ledger.state_db,
            history_db=self.ledger.history_db,
            block_store=self.ledger.block_store,
        )
        if verify_signatures:
            # Re-wire the ledger's validator with the signature check; the
            # ledger builds a bare MVCC validator by default.
            self.ledger.rewire_validator(
                signature_check or self.endorser.verify_endorsement
            )

    def install_chaincode(self, chaincode: Chaincode) -> None:
        """Install ``chaincode`` on this peer's endorser."""
        self.endorser.install(chaincode)

    def endorse(
        self,
        chaincode_name: str,
        fn: str,
        args: List[Any],
        creator: str,
        timestamp: int,
    ) -> tuple[Transaction, Any]:
        return self.endorser.endorse(chaincode_name, fn, args, creator, timestamp)

    def commit(self, block: Block) -> int:
        return self.ledger.commit_block(block)

    def sync_from(self, source: Ledger) -> int:
        """Catch up by replaying ``source``'s blocks beyond our height.

        This is the simulator's stand-in for Fabric's gossip/state
        transfer: a late-joining or restarted peer fetches missing blocks
        from a peer that has them and commits each one through the normal
        validation path.  Returns the number of blocks replayed.
        """
        replayed = 0
        for block in source.block_store.iter_blocks(start=self.ledger.height):
            self.commit(block)
            replayed += 1
        return replayed

    def close(self) -> None:
        self.ledger.close()
