"""The solo ordering service: batch cutting and the block hash chain.

Endorsed transactions queue at the orderer; a block is cut when the batch
hits ``max_message_count`` (Fabric's ``BatchSize.MaxMessageCount``) or
when a client flushes.  Fabric's byte cap and batch timeout are not
modelled: no table of the paper fills a batch past 136 KB, a quarter of
Fabric's 512 KB default, so neither rule ever cut a block here.

Blocks are chained: each header carries the hash of the previous header.
The orderer's head moves when it cuts a block, before the peer commits
it, so a block that fails to commit -- a value the codec cannot encode,
an I/O error part-way through the commit -- halts the orderer: every
later submit raises :class:`~repro.common.errors.OrdererHaltedError`
instead of cutting a block whose previous hash the ledger never
committed.  A commit can fail after its block is appended, so only a
reopen, which recovers the ledger and takes the orderer's head from it,
is sure to continue from a consistent head.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.common.config import BlockCuttingConfig
from repro.common.errors import OrdererHaltedError
from repro.fabric.block import (
    GENESIS_PREVIOUS_HASH,
    Block,
    BlockHeader,
    Transaction,
)
from repro.faults.crashpoints import ORDERER_BLOCK_CUT, crash_point

#: Callback invoked with every cut block (the committing peer).
BlockConsumer = Callable[[Block], None]


class SoloOrderer:
    """Single-node ordering service delivering blocks synchronously."""

    def __init__(
        self,
        config: Optional[BlockCuttingConfig] = None,
        next_block_number: int = 0,
        previous_hash: bytes = GENESIS_PREVIOUS_HASH,
    ) -> None:
        self._config = config or BlockCuttingConfig()
        self._pending: List[Transaction] = []
        self._next_number = next_block_number
        self._previous_hash = previous_hash
        self._consumers: List[BlockConsumer] = []
        #: Why the orderer halted: set when a consumer raised on a block.
        self._halted: Optional[str] = None
        self.blocks_cut = 0

    def register_consumer(self, consumer: BlockConsumer) -> None:
        """Add a block consumer (the committing peer)."""
        self._consumers.append(consumer)

    # -- ingest -------------------------------------------------------------

    def submit(self, tx: Transaction) -> None:
        """Queue one endorsed transaction, cutting a block if the batch
        is full.  Raises :class:`OrdererHaltedError` once a block failed
        to commit."""
        if self._halted is not None:
            raise OrdererHaltedError(self._halted)
        self._pending.append(tx)
        if len(self._pending) >= self._config.max_message_count:
            self.cut_block()

    # -- block production -----------------------------------------------------

    def cut_block(self) -> Optional[Block]:
        """Cut a block from queued transactions and deliver it.

        Returns the block, or ``None`` if nothing was pending.  A consumer
        that raises halts the orderer (see the module docstring) and the
        error propagates to the caller.
        """
        if not self._pending:
            return None
        transactions = self._pending
        self._pending = []
        header = BlockHeader(
            number=self._next_number,
            previous_hash=self._previous_hash,
            data_hash=Block.compute_data_hash(transactions),
        )
        block = Block(header=header, transactions=transactions)
        self._next_number += 1
        self._previous_hash = header.hash()
        self.blocks_cut += 1
        crash_point(ORDERER_BLOCK_CUT)
        try:
            for consumer in list(self._consumers):
                consumer(block)
        except BaseException as exc:
            self._halted = (
                f"the orderer halted: block {header.number} failed to commit "
                f"({type(exc).__name__}: {exc}); reopen the network to resume "
                "from its ledger's head"
            )
            raise
        return block

    def flush(self) -> Optional[Block]:
        """Force-cut any pending partial batch (end of an ingestion run)."""
        return self.cut_block()
