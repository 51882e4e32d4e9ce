"""``repro doctor``: consistency checker for a ledger directory.

The doctor answers one question about a directory that may have just
survived a crash: *is everything on disk mutually consistent, and where
it is not, is the damage repairable?*  It layers four groups of checks:

1. **Raw storage** (before any recovery runs): WAL record integrity,
   SSTable checksums, stray ``.tmp`` staging files.
2. **Recovery**: the ledger is opened normally, which repairs whatever
   is derivable (block index, history index, state replay).
3. **Cross-structure audit** (:func:`repro.fabric.audit.audit_ledger`):
   hash chain, data hashes, state-db vs an independent chain replay,
   history index, savepoint.
4. **M1 index consistency**: every recorded indexing run must be
   readable (a run written with a removed interval scheme is an error);
   gaps between runs, bundles no recorded run covers and bundles still
   in state-db are flagged -- rerunning the interrupted indexing run
   finishes it.

Everything is reported as findings (never an exception for damage), so
operators see the whole picture in one run.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import List, Optional, Tuple

from repro.common.codec import Codec, JsonCodec
from repro.common.config import FabricConfig
from repro.common.errors import IndexingError, ReproError, WalCorruptionError
from repro.fabric.audit import audit_ledger

_WAL_NAME = "wal.log"


@dataclasses.dataclass(frozen=True)
class Finding:
    """One inconsistency the doctor found."""

    severity: str  # "error" or "warning"
    code: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.severity}] {self.code}: {self.detail}"


@dataclasses.dataclass
class DoctorReport:
    """Everything the doctor found (no error findings == consistent)."""

    path: str
    backend: str
    height: int = 0
    wal_records: int = 0
    sstables_checked: int = 0
    findings: List[Finding] = dataclasses.field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no error-severity findings exist."""
        return not any(f.severity == "error" for f in self.findings)

    def add(self, severity: str, code: str, detail: str) -> None:
        """Record one finding."""
        self.findings.append(Finding(severity=severity, code=code, detail=detail))

    def render(self) -> str:
        status = "consistent" if self.ok else "INCONSISTENT"
        lines = [
            f"doctor: {self.path} [{self.backend} state-db] -> {status}",
            f"  chain height {self.height}, wal records {self.wal_records}, "
            f"sstables verified {self.sstables_checked}",
        ]
        lines.extend(f"  {finding}" for finding in self.findings)
        return "\n".join(lines)


def detect_backend(path: str | Path) -> str:
    """Guess the state-db backend from what the directory contains:
    ``lsm`` leaves a WAL or SSTables, ``memory`` leaves nothing.  Any
    other file under ``statedb/`` is ignored -- the state-db is derived
    data, rebuilt from the chain."""
    statedb = Path(path) / "statedb"
    if (statedb / _WAL_NAME).exists() or any(statedb.glob("sst-*.sst")):
        return "lsm"
    return "memory"


def run_doctor(
    path: str | Path, config: Optional[FabricConfig] = None
) -> DoctorReport:
    """Run every check against the ledger directory at ``path``.

    ``config`` defaults to a :class:`FabricConfig` with the state-db
    backend auto-detected from the directory.
    """
    path = Path(path)
    if not path.is_dir():
        # Bail before Ledger() would scaffold a fresh (empty, "healthy")
        # directory here -- a diagnostic must never create state.
        report = DoctorReport(path=str(path), backend="unknown")
        report.add("error", "no-such-directory", f"{path} is not a directory")
        return report
    if config is None:
        config = FabricConfig()
        config = dataclasses.replace(
            config,
            state_db=dataclasses.replace(
                config.state_db, backend=detect_backend(path)
            ),
        )
    report = DoctorReport(path=str(path), backend=config.state_db.backend)

    _check_raw_storage(path, report)

    from repro.fabric.ledger import Ledger

    try:
        ledger = Ledger(path, config=config)
    except ReproError as exc:
        report.height, undecodable = _chain_on_disk(path)
        where = f" ({undecodable} does not decode)" if undecodable else ""
        report.add("error", "recovery-failed", f"ledger will not open: {exc}{where}")
        return report
    try:
        report.height = ledger.height
        audit_ledger(ledger, report)
        _check_m1(ledger, report)
    finally:
        ledger.close()
    return report


def _check_raw_storage(path: Path, report: DoctorReport) -> None:
    """WAL and SSTable integrity straight off the files, pre-recovery."""
    from repro.storage.kv.sstable import SSTableReader
    from repro.storage.kv.wal import replay

    statedb = path / "statedb"
    wal_path = statedb / _WAL_NAME
    if wal_path.exists():
        try:
            report.wal_records += len(replay(wal_path)[0])
        except WalCorruptionError as exc:
            report.add("error", "wal-corrupt", str(exc))
    for table in sorted(statedb.glob("sst-*.sst")):
        try:
            SSTableReader(table)
            report.sstables_checked += 1
        except ReproError as exc:
            # SSTableError messages already lead with the file name.
            report.add("error", "sstable-corrupt", str(exc))
    for pattern in ("statedb/*.tmp", "ledger/index/*.tmp"):
        for stray in sorted(path.glob(pattern)):
            report.add(
                "warning", "stray-temp-file",
                f"{stray.relative_to(path)}: staging file left by a crash "
                "(swept automatically on open)",
            )


def _chain_on_disk(path: Path) -> Tuple[int, Optional[str]]:
    """The chain height the block files hold -- their intact records, up
    to the first damaged one -- and where the first of those records
    fails to decode as a reopen decodes it: ``block N``, with the
    transaction and key where a segment-by-segment walk reaches them.
    Reads only -- the block store's own open creates files and appends to
    its index -- and repairs or skips nothing."""
    from repro.common.errors import BlockFileError
    from repro.storage.blockfile import latest_file_num, scan_files

    chains = path / "ledger" / "chains"
    if not chains.is_dir():
        return 0, None
    codec = JsonCodec()
    height = 0
    undecodable: Optional[str] = None
    try:
        for _, payload in scan_files(chains, 0, 0, latest_file_num(chains)):
            if undecodable is None:
                undecodable = _undecodable(height, payload, codec)
            height += 1
    except BlockFileError:
        pass  # the damage is the recovery-failed finding; count the prefix
    return height, undecodable


def _undecodable(number: int, payload: bytes, codec: Codec) -> Optional[str]:
    """``None`` when record ``number`` decodes whole (its history keys,
    then every transaction), else where it fails."""
    from repro.fabric.block import Block

    block = None
    try:
        block = Block.from_payload(payload, codec)
        block.history_keys()
        list(block.transactions)
        return None
    except ReproError:
        spot = block.first_undecodable() if block is not None else None
    where = f"block {number}"
    if spot is None:
        return where
    tx_index, key = spot
    if tx_index is None:
        return f"{where}, header"
    where += f", transaction {tx_index}"
    return where if key is None else f"{where}, key {key!r}"


def _check_m1(ledger, report: DoctorReport) -> None:
    """M1 invariants: every recorded indexing run is readable; stretches
    of ``(0, indexed_until]`` no run covers make M1 refuse the windows
    touching them.  What an interrupted indexing run leaves -- bundles in
    history-db no recorded run covers, bundles still in state-db -- is
    read off the ledger and reported as resumable, not fatal."""
    from repro.common.errors import TemporalQueryError
    from repro.temporal.intervals import TimeInterval
    from repro.temporal.keys import decode_interval_key, is_interval_key
    from repro.temporal.m1 import M1QueryEngine, uncovered_stretches

    try:
        runs = M1QueryEngine(ledger).indexing_runs()
    except IndexingError as exc:
        report.add("error", "m1-run-unreadable", str(exc))
        runs = []
    if runs:
        indexed_until = max(run.t2 for run in runs)
        gaps = uncovered_stretches(runs, TimeInterval(0, indexed_until))
        if gaps:
            report.add(
                "warning", "m1-index-gap",
                f"no indexing run covers {', '.join(map(str, gaps))} of "
                f"(0-{indexed_until}]: M1 queries touching a stretch raise "
                "TemporalQueryError; index the stretch with M1Indexer.run, "
                "or query it on TQF",
            )

    def bundle_interval(key: str) -> Optional[TimeInterval]:
        """The interval of an M1 bundle key, else ``None``.  M1 indexes
        keys listed from state-db, so its bundles' base keys are there;
        an M2 ledger stores ``(k, θ)`` keys but never ``k``."""
        if not is_interval_key(key):
            return None
        try:
            base_key, interval = decode_interval_key(key)
        except TemporalQueryError:
            return None
        return interval if ledger.state_db.get_state(base_key) is not None else None

    unrecorded: List[TimeInterval] = []
    for key in ledger.history_db.keys():
        interval = bundle_interval(key)
        if interval is not None and uncovered_stretches(runs, interval):
            unrecorded.append(interval)
    if unrecorded:
        span = TimeInterval(
            min(interval.start for interval in unrecorded),
            max(interval.end for interval in unrecorded),
        )
        report.add(
            "warning", "m1-run-in-progress",
            f"history-db holds {len(unrecorded)} M1 bundles over {span} that "
            "no recorded indexing run covers: an indexing run was "
            "interrupted; rerun M1Indexer.run over that range to finish it",
        )
    for key in ledger.state_db.keys_in_range("", ""):
        if bundle_interval(key) is not None:
            report.add(
                "warning", "m1-unfinished-bundle",
                f"{key!r} still in state-db: its clear_index transaction "
                "never committed (rerunning the interrupted indexing run "
                "clears it)",
            )
