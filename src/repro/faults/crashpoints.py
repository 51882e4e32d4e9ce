"""Named crash points threaded through the write path.

A crash point is a single call -- ``crash_point(LEDGER_PRE_STATE)`` -- at
an instrumented location.  With no plan armed it is one global ``is None``
check, cheap enough to live on the commit path permanently; with a plan
armed (via :func:`active_plan`) it lets the harness kill the process at
exactly that point and verify recovery.

Every registered point is listed in :data:`ALL_CRASH_POINTS`, which the
kill-point sweep iterates so newly added points are automatically swept.
An armed ``crash_point`` refuses a name the registry does not hold, so
a point added without registering it fails the first armed run instead
of going unswept.
The registry is process-global and single-threaded by design, matching
the simulator's synchronous pipeline.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.common.errors import FaultInjectionError
from repro.faults.plan import FaultPlan

__all__ = [
    "crash_point",
    "active_plan",
    "ALL_CRASH_POINTS",
    "COMMIT_CRASH_POINTS",
    "M1_CRASH_POINTS",
]

# -- the registry ---------------------------------------------------------

#: After the orderer assembled a block, before delivering it to committers.
ORDERER_BLOCK_CUT = "orderer.block_cut"
#: Block validated, before anything touches disk.
LEDGER_PRE_APPEND = "ledger.pre_block_append"
#: Block file record written, before the block index records its location.
BLOCKSTORE_MID_ADD = "blockstore.between_file_and_index"
#: Block durable on disk, before the history index sees it.
LEDGER_PRE_HISTORY = "ledger.pre_history_index"
#: History indexed, before any state-db write is applied.
LEDGER_PRE_STATE = "ledger.pre_state_apply"
#: Mid state apply: after the first transaction's writes only.
LEDGER_MID_STATE = "ledger.mid_state_apply"
#: All state writes applied, before the savepoint records the block.
LEDGER_PRE_SAVEPOINT = "ledger.pre_savepoint"
#: Commit complete (block acknowledged); next operation not yet started.
LEDGER_POST_COMMIT = "ledger.post_commit"
#: LSM memtable full, before the new SSTable is written.
LSM_PRE_SSTABLE = "lsm.pre_sstable_write"
#: New SSTable finalized, before the WAL is truncated.
LSM_POST_SSTABLE = "lsm.post_sstable_write"

#: M1 indexer: before submitting a bundle's write_index transaction.
M1_PRE_BUNDLE = "m1.pre_bundle_write"
#: M1 indexer: bundle written, before its clear_index tombstone.
M1_MID_BUNDLE = "m1.between_write_and_clear"
#: M1 indexer: a key's bundles submitted (the last may still be pending).
M1_POST_KEY = "m1.post_key"
#: M1 indexer: all keys done, before the record_run metadata transaction.
M1_PRE_RECORD_RUN = "m1.pre_record_run"
#: M1 indexer: run recorded on the ledger, before ``run`` returns.
M1_POST_RECORD_RUN = "m1.post_record_run"

#: Commit-pipeline points (swept against ingestion workloads on the
#: ``lsm`` state-db, the backend that reaches the two ``lsm.*`` points).
COMMIT_CRASH_POINTS = (
    ORDERER_BLOCK_CUT,
    LEDGER_PRE_APPEND,
    BLOCKSTORE_MID_ADD,
    LEDGER_PRE_HISTORY,
    LEDGER_PRE_STATE,
    LEDGER_MID_STATE,
    LEDGER_PRE_SAVEPOINT,
    LEDGER_POST_COMMIT,
    LSM_PRE_SSTABLE,
    LSM_POST_SSTABLE,
)

#: M1 indexing points (swept against indexing runs, recovered by a rerun).
M1_CRASH_POINTS = (
    M1_PRE_BUNDLE,
    M1_MID_BUNDLE,
    M1_POST_KEY,
    M1_PRE_RECORD_RUN,
    M1_POST_RECORD_RUN,
)

ALL_CRASH_POINTS = COMMIT_CRASH_POINTS + M1_CRASH_POINTS

# -- the hook -------------------------------------------------------------

_ACTIVE: Optional[FaultPlan] = None


def crash_point(name: str) -> None:
    """Report reaching ``name``; raises ``SimulatedCrashError`` when an
    armed plan scheduled a crash here, and ``FaultInjectionError`` when a
    plan is armed and ``name`` is not registered."""
    if _ACTIVE is not None:
        if name not in ALL_CRASH_POINTS:
            raise FaultInjectionError(
                f"crash point {name!r} is not registered: add it to "
                "repro/faults/crashpoints.py and a sweep tuple"
            )
        _ACTIVE.on_crash_point(name)


@contextmanager
def active_plan(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Arm ``plan`` for the duration of the block (not reentrant)."""
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("a fault plan is already active")
    _ACTIVE = plan
    try:
        yield plan
    finally:
        _ACTIVE = None
