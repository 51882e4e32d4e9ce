"""The ledger: block store + state-db + history-db behind one facade.

``commit_block`` runs the full commit path: hash-chain check, data-hash
check, validation (endorsement + MVCC), block append, state-db write
application, history-db indexing and savepoint update.  Query APIs mirror
the three Fabric calls the paper builds on: ``GetState``,
``GetStateByRange`` and ``GetHistoryForKey``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Iterator, Optional

from repro.common import metrics as metric_names
from repro.common.config import FabricConfig
from repro.common.errors import HashChainError
from repro.common.metrics import NULL_REGISTRY, MetricsRegistry
from repro.fabric.block import GENESIS_PREVIOUS_HASH, VALID, Block, Version
from repro.fabric.blockstore import BlockStore
from repro.fabric.historydb import HistoryDB, HistoryEntry
from repro.fabric.statedb import StateDB, StateValue
from repro.fabric.validator import Validator
from repro.faults.crashpoints import (
    LEDGER_MID_STATE,
    LEDGER_POST_COMMIT,
    LEDGER_PRE_APPEND,
    LEDGER_PRE_HISTORY,
    LEDGER_PRE_SAVEPOINT,
    LEDGER_PRE_STATE,
    crash_point,
)
from repro.faults.fs import REAL_FS, FileSystem
from repro.storage.kv import open_kv_store

__all__ = ["Ledger", "HistoryEntry"]


class Ledger:
    """A single peer's ledger."""

    def __init__(
        self,
        path: str | Path,
        config: Optional[FabricConfig] = None,
        metrics: MetricsRegistry = NULL_REGISTRY,
        fs: FileSystem = REAL_FS,
    ) -> None:
        self._config = config or FabricConfig()
        self._metrics = metrics
        path = Path(path)
        self.block_store = BlockStore(
            path / "ledger",
            codec=self._config.block_store.codec,
            max_file_bytes=self._config.block_store.max_file_bytes,
            metrics=metrics,
            cache_blocks=self._config.block_store.cache_blocks,
            durability=self._config.block_store.durability,
            fs=fs,
        )
        state_config = self._config.state_db
        # One option set whichever backend is configured: ``lsm`` takes
        # all of it, ``memory`` has nothing to configure and ignores it.
        self.state_db = StateDB(
            open_kv_store(
                state_config.backend,
                path=path / "statedb",
                memtable_limit=state_config.memtable_limit,
                compaction_trigger=state_config.compaction_trigger,
                durability=state_config.durability,
                metrics=metrics,
                fs=fs,
            ),
            metrics=metrics,
        )
        self.history_db = HistoryDB(metrics=metrics)
        self._validator = Validator(self.state_db.get_version)
        self._last_header_hash = GENESIS_PREVIOUS_HASH
        self._recover()

    def rewire_validator(self, signature_check) -> None:
        """Rebuild the validator with an endorsement-signature check
        (the peer calls this once its endorser exists)."""
        self._validator = Validator(self.state_db.get_version, signature_check)

    def _recover(self) -> None:
        """Rebuild derived state after reopening an existing ledger.

        The history index is always rebuilt from the chain; the state-db is
        replayed from the savepoint forward (normally a no-op).  When the
        state-db opened with quarantined tables (an SSTable failed its
        checksum), the savepoint and any surviving entries are untrusted:
        the loss is acknowledged and every state is rebuilt by replaying
        the chain from block 0 -- the chain, not the derived store, is
        authoritative.
        """
        if self.block_store.height == 0:
            return
        quarantined = self.state_db.quarantined_tables()
        if quarantined:
            self.state_db.acknowledge_quarantine()
            self._metrics.increment(
                metric_names.STATE_TABLES_QUARANTINED, len(quarantined)
            )
            savepoint: Optional[int] = None
        else:
            savepoint = self.state_db.savepoint()
        replay_from = 0 if savepoint is None else savepoint + 1
        for block in self.block_store.iter_blocks():
            self.history_db.index_block(block)
            if block.number >= replay_from:
                self._apply_state_writes(block)
                self.state_db.record_savepoint(block.number)
            self._last_header_hash = block.header.hash()

    # -- commit path ---------------------------------------------------------

    def commit_block(self, block: Block) -> int:
        """Validate and commit one block; returns the number of valid txs.

        Every block is appended only after validation, and the chain is
        durable before anything derived from it (history index, state
        writes, savepoint) is applied.
        """
        with self._metrics.timed(metric_names.COMMIT_SECONDS):
            if block.header.previous_hash != self._last_header_hash:
                raise HashChainError(
                    f"block {block.number}: previous hash "
                    f"{block.header.previous_hash.hex()[:12]} does not match chain "
                    f"head {self._last_header_hash.hex()[:12]}"
                )
            block.verify_data_hash()
            valid_count = self._validator.validate_block(block)
            crash_point(LEDGER_PRE_APPEND)
            self.block_store.add_block(block)
            # Make the block durable before anything derived from it: the
            # state-db and history-db are rebuilt from the chain on
            # recovery, so the chain must never lag them.
            self.block_store.sync()
            crash_point(LEDGER_PRE_HISTORY)
            self.history_db.index_block(block)
            crash_point(LEDGER_PRE_STATE)
            self._apply_state_writes(block)
            crash_point(LEDGER_PRE_SAVEPOINT)
            self.state_db.record_savepoint(block.number)
            crash_point(LEDGER_POST_COMMIT)
            self._last_header_hash = block.header.hash()
            self._metrics.increment(metric_names.BLOCKS_COMMITTED)
            self._metrics.increment(metric_names.TXS_COMMITTED, valid_count)
            self._metrics.increment(
                metric_names.TXS_INVALIDATED, len(block.transactions) - valid_count
            )
        return valid_count

    def _apply_state_writes(self, block: Block) -> None:
        applied_one = False
        for tx_num, tx in enumerate(block.transactions):
            if tx.validation_code != VALID:
                continue
            version: Version = (block.number, tx_num)
            for write in tx.rw_set.writes.values():
                self.state_db.apply_write(write, version)
            if not applied_one:
                applied_one = True
                crash_point(LEDGER_MID_STATE)

    # -- queries --------------------------------------------------------------

    def get_state(self, key: str) -> Optional[Any]:
        """Current value of ``key`` (Fabric GetState)."""
        state = self.state_db.get_state(key)
        return state.value if state else None

    def get_state_entry(self, key: str) -> Optional[StateValue]:
        """Current value *and version* of ``key``."""
        return self.state_db.get_state(key)

    def get_history_for_key(self, key: str) -> Iterator[HistoryEntry]:
        """Fabric GHFK: lazy, oldest-first history iterator for ``key``."""
        return self.history_db.get_history_for_key(key, self.block_store)

    # -- integrity & bookkeeping ------------------------------------------------

    @property
    def height(self) -> int:
        return self.block_store.height

    @property
    def last_header_hash(self) -> bytes:
        return self._last_header_hash

    def state_fingerprint(self) -> str:
        """SHA-256 over every committed state (key, value, version).

        Two honest peers that committed the same chain have identical
        fingerprints; used to check replica convergence.
        """
        import hashlib
        import json

        hasher = hashlib.sha256()
        for key, state in self.state_db.get_state_by_range("", ""):
            hasher.update(
                json.dumps(
                    [key, state.value, list(state.version)],
                    sort_keys=True,
                    default=repr,
                ).encode("utf-8")
            )
        return hasher.hexdigest()

    def verify_chain(self) -> None:
        """Walk the chain verifying hash links and data hashes."""
        previous = GENESIS_PREVIOUS_HASH
        for block in self.block_store.iter_blocks():
            if block.header.previous_hash != previous:
                raise HashChainError(
                    f"block {block.number}: broken previous-hash link"
                )
            block.verify_data_hash()
            previous = block.header.hash()

    def close(self) -> None:
        self.block_store.close()
        self.state_db.close()
