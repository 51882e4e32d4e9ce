"""Chain inspection: summarize a ledger's shape and costs.

Answers the operational questions behind the paper's cost model: how many
blocks, how are transactions distributed over them, how deep are key
histories, how many blocks would a GHFK of key ``k`` touch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.fabric.block import VALID
from repro.fabric.ledger import Ledger


@dataclass
class ChainSummary:
    """Aggregate statistics over one ledger."""

    height: int
    total_transactions: int
    valid_transactions: int
    invalidated_transactions: int
    total_block_bytes: int
    state_count: int
    history_keys: int
    #: Histogram: number of blocks per transaction-count bucket.
    txs_per_block: Dict[int, int] = field(default_factory=dict)
    #: Top keys by number of distinct blocks their history touches.
    widest_histories: List[tuple[str, int]] = field(default_factory=list)

    def render(self) -> str:
        lines = [
            f"chain height          : {self.height} blocks",
            f"transactions          : {self.total_transactions} "
            f"({self.valid_transactions} valid, "
            f"{self.invalidated_transactions} invalidated)",
            f"block storage         : {self.total_block_bytes:,} bytes",
            f"state-db live states  : {self.state_count}",
            f"history-db keys       : {self.history_keys}",
            "txs per block         : "
            + ", ".join(
                f"{count}x{blocks}"
                for count, blocks in sorted(self.txs_per_block.items())
            ),
            "widest histories      : "
            + ", ".join(f"{key}({blocks})" for key, blocks in self.widest_histories),
        ]
        return "\n".join(lines)


def summarize_chain(ledger: Ledger, top_keys: int = 5) -> ChainSummary:
    """Walk the chain and compute a :class:`ChainSummary`.

    This deserializes every block exactly once (it is an offline
    diagnostic, not a query path).
    """
    total_txs = 0
    valid_txs = 0
    txs_per_block: Dict[int, int] = {}
    for block in ledger.block_store.iter_blocks():
        count = len(block.transactions)
        total_txs += count
        valid_txs += sum(1 for tx in block.transactions if tx.validation_code == VALID)
        txs_per_block[count] = txs_per_block.get(count, 0) + 1

    history = ledger.history_db
    widths = sorted(
        (
            (key, history.block_count_for_key(key))
            for key in history.keys()
        ),
        key=lambda pair: (-pair[1], pair[0]),
    )
    return ChainSummary(
        height=ledger.height,
        total_transactions=total_txs,
        valid_transactions=valid_txs,
        invalidated_transactions=total_txs - valid_txs,
        total_block_bytes=ledger.block_store.total_bytes(),
        state_count=ledger.state_db.state_count(),
        history_keys=history.key_count(),
        txs_per_block=txs_per_block,
        widest_histories=widths[:top_keys],
    )
