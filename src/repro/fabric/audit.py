"""Full-ledger audit: cross-check every derived structure against the chain.

The chain is the source of truth; state-db, history index and savepoint
are derivations.  The auditor replays the chain independently and adds
every divergence to the caller's
:class:`~repro.faults.doctor.DoctorReport` instead of stopping at the
first, so operators get the whole damage picture:

* hash-chain links and per-block data hashes;
* state-db contents vs a fresh replay of all valid writes;
* history-index locations vs the blocks' actual writes;
* savepoint vs chain height.

Those are all the derivations a peer keeps, so a clean audit means the
peer's whole queryable state follows from its blocks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.common.errors import ReproError
from repro.fabric.block import GENESIS_PREVIOUS_HASH, VALID, Version
from repro.fabric.historydb import HistoryDB
from repro.fabric.ledger import Ledger

if TYPE_CHECKING:
    from repro.faults.doctor import DoctorReport


def audit_ledger(ledger: Ledger, report: DoctorReport) -> None:
    """Run every check, adding what it finds to ``report``; never raises
    for ledger damage (only for IO that prevents reading the chain at
    all)."""
    expected_state = _audit_chain(ledger, report)
    _audit_state_db(ledger, expected_state, report)
    _audit_history_index(ledger, report)
    _audit_savepoint(ledger, report)


def _audit_chain(ledger: Ledger, report: DoctorReport) -> Dict[str, tuple]:
    """Walk the chain verifying hashes; returns the replayed state
    ``key -> (value, version)``."""
    expected: Dict[str, tuple] = {}
    previous = GENESIS_PREVIOUS_HASH
    for number in range(ledger.height):
        try:
            block = ledger.block_store.get_block(number)
        except ReproError as exc:
            report.add("error", "block-unreadable", f"block {number}: {exc}")
            return expected
        if block.header.previous_hash != previous:
            report.add(
                "error",
                "hash-chain-broken",
                f"block {number}: previous-hash link does not match",
            )
        try:
            block.verify_data_hash()
        except ReproError:
            report.add(
                "error", "data-hash-mismatch",
                f"block {number}: transactions do not match the header hash",
            )
        previous = block.header.hash()
        for tx_num, tx in enumerate(block.transactions):
            if tx.validation_code != VALID:
                continue
            version: Version = (number, tx_num)
            for key, write in tx.rw_set.writes.items():
                if write.is_delete:
                    expected.pop(key, None)
                else:
                    expected[key] = (write.value, version)
    return expected


def _audit_state_db(
    ledger: Ledger, expected: Dict[str, tuple], report: DoctorReport
) -> None:
    actual: Dict[str, tuple] = {}
    for key, state in ledger.state_db.get_state_by_range("", ""):
        actual[key] = (state.value, state.version)
    for key, (value, version) in expected.items():
        if key not in actual:
            report.add("error", "state-missing", f"{key!r} absent from state-db")
        elif actual[key] != (value, version):
            report.add(
                "error", "state-mismatch",
                f"{key!r}: state-db has {actual[key]}, chain implies "
                f"{(value, version)}",
            )
    for key in actual:
        if key not in expected:
            report.add(
                "error", "state-extra",
                f"{key!r} in state-db but not derivable from the chain",
            )


def _audit_history_index(ledger: Ledger, report: DoctorReport) -> None:
    rebuilt = HistoryDB()
    rebuilt.rebuild(ledger.block_store)
    live = ledger.history_db
    keys = set(live.keys()) | set(rebuilt.keys())
    for key in sorted(keys):
        if live.locations_for_key(key) != rebuilt.locations_for_key(key):
            report.add(
                "error", "history-index-divergent",
                f"{key!r}: index locations do not match the chain",
            )


def _audit_savepoint(ledger: Ledger, report: DoctorReport) -> None:
    savepoint = ledger.state_db.savepoint()
    if ledger.height == 0:
        if savepoint is not None:
            report.add("warning", "savepoint-ahead", "savepoint set on empty chain")
        return
    if savepoint is None:
        report.add(
            "warning", "savepoint-missing",
            "no savepoint recorded; reopen will replay the whole chain",
        )
    elif savepoint != ledger.height - 1:
        report.add(
            "warning", "savepoint-stale",
            f"savepoint {savepoint} != last block {ledger.height - 1}",
        )
