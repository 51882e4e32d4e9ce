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
   readable (a run written with a removed interval scheme is an error),
   half-finished bundle pairs and an unfinished run manifest are flagged
   as resumable (a manifest the indexer could not resume from is an
   error).

Everything is reported as findings (never an exception for damage), so
operators see the whole picture in one run.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import List, Optional

from repro.common.config import FabricConfig
from repro.common.errors import IndexingError, ReproError, WalCorruptionError
from repro.fabric.audit import Finding, audit_ledger

_WAL_NAME = "wal.log"


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
    path: str | Path,
    config: Optional[FabricConfig] = None,
    manifest_path: Optional[str | Path] = None,
) -> DoctorReport:
    """Run every check against the ledger directory at ``path``.

    ``config`` defaults to a :class:`FabricConfig` with the state-db
    backend auto-detected from the directory.  ``manifest_path`` points
    at the M1 indexer's run manifest, if one is in use.
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
        report.add("error", "recovery-failed", f"ledger will not open: {exc}")
        return report
    try:
        report.height = ledger.height
        audit = audit_ledger(ledger)
        report.findings.extend(audit.findings)
        _check_m1(ledger, report)
    finally:
        ledger.close()

    if manifest_path is not None:
        _check_run_manifest(Path(manifest_path), report)
    return report


def _check_run_manifest(path: Path, report: DoctorReport) -> None:
    """An M1 run manifest left by an interrupted run is resumable only
    if :class:`~repro.temporal.m1.M1Indexer` can read its range back."""
    from repro.faults.manifest import RunManifest

    try:
        state = RunManifest(path).load()
    except ReproError as exc:
        report.add("error", "m1-manifest-corrupt", str(exc))
        return
    if state is None:
        return
    missing = [field for field in ("t1", "t2", "u") if field not in state]
    if missing:
        report.add(
            "error", "m1-manifest-corrupt",
            f"run manifest {path} lacks {', '.join(missing)}: the "
            "interrupted run cannot be resumed",
        )
        return
    report.add(
        "warning", "m1-run-in-progress",
        f"run manifest {path} records an interrupted M1 indexing run "
        f"({state['t1']}, {state['t2']}] u={state['u']}; rerun that range "
        "to resume it",
    )


def _check_raw_storage(path: Path, report: DoctorReport) -> None:
    """WAL and SSTable integrity straight off the files, pre-recovery."""
    from repro.storage.kv.sstable import SSTableReader
    from repro.storage.kv.wal import replay

    statedb = path / "statedb"
    wal_path = statedb / _WAL_NAME
    if wal_path.exists():
        try:
            report.wal_records += sum(1 for _ in replay(wal_path))
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


def _check_m1(ledger, report: DoctorReport) -> None:
    """M1 invariants: every recorded indexing run is readable; stretches
    of ``(0, indexed_until]`` no run covers make M1 refuse the windows
    touching them; bundle pairs that are missing their ``clear_index``
    half are resumable, not fatal."""
    from repro.temporal.intervals import TimeInterval
    from repro.temporal.keys import is_interval_key
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
                "TemporalQueryError (degrade=True answers from TQF); index "
                "it with M1Indexer.run",
            )
    for key, _ in ledger.state_db.get_state_by_range("", ""):
        if is_interval_key(key):
            report.add(
                "warning", "m1-unfinished-bundle",
                f"{key!r} still in state-db: its clear_index transaction "
                "never committed (resuming the indexing run repairs this)",
            )
