"""The solo ordering service: batch cutting and the block hash chain.

Endorsed transactions queue at the orderer; a block is cut when the batch
hits ``max_message_count``, exceeds ``max_batch_bytes``, or (in logical
time) the oldest queued transaction is ``batch_timeout`` older than the
newest.  These are Fabric's ``BatchSize``/``BatchTimeout`` semantics with
logical time standing in for wall time.

Blocks are chained: each header carries the hash of the previous header.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.common.config import BlockCuttingConfig
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
        self._pending_bytes = 0
        self._next_number = next_block_number
        self._previous_hash = previous_hash
        self._consumers: List[BlockConsumer] = []
        self.blocks_cut = 0

    def register_consumer(self, consumer: BlockConsumer) -> None:
        """Add a block consumer (the committing peer)."""
        self._consumers.append(consumer)

    # -- ingest -------------------------------------------------------------

    def submit(self, tx: Transaction) -> None:
        """Queue one endorsed transaction, cutting a block if the batch
        is full."""
        self._pending.append(tx)
        self._pending_bytes += self._estimate_size(tx)
        if self._should_cut():
            self.cut_block()

    def _should_cut(self) -> bool:
        if len(self._pending) >= self._config.max_message_count:
            return True
        if self._pending_bytes >= self._config.max_batch_bytes:
            return True
        if self._config.batch_timeout and len(self._pending) > 1:
            oldest = self._pending[0].timestamp
            newest = self._pending[-1].timestamp
            if newest - oldest >= self._config.batch_timeout:
                return True
        return False

    @staticmethod
    def _estimate_size(tx: Transaction) -> int:
        return len(tx.signable_payload())

    # -- block production -----------------------------------------------------

    def cut_block(self) -> Optional[Block]:
        """Cut a block from queued transactions and deliver it.

        Returns the block, or ``None`` if nothing was pending.
        """
        if not self._pending:
            return None
        transactions = self._pending
        self._pending = []
        self._pending_bytes = 0
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
        for consumer in list(self._consumers):
            consumer(block)
        return block

    def flush(self) -> Optional[Block]:
        """Force-cut any pending partial batch (end of an ingestion run)."""
        return self.cut_block()

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    @property
    def next_block_number(self) -> int:
        return self._next_number
