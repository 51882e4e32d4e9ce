"""mtime+SHA keyed result cache for whole lint runs.

The interprocedural rules make every run a *project* analysis, so a
per-file cache would be unsound: an edit to ``helpers.py`` can change
findings in ``chaincodes.py``.  Instead the whole run is cached under a
fingerprint of everything that can influence it:

* every analyzed file's content hash -- revalidated by ``mtime_ns`` +
  size first, so an unchanged tree costs one ``stat()`` per file and
  zero reads;
* the rule selection;
* the analyzer's own sources (``repro/analysis/**/*.py``): rules, and
  the tables they read, are inputs of the run like any linted file;
* a schema version for the cache file's layout.

On a hit the previous :class:`~repro.analysis.runner.LintResult` is
rebuilt from JSON (minus the parsed ``project``, which cached consumers
don't need); on a miss the caller runs the analysis and stores the
fresh result with the stamps already computed for the lookup.  The
cache file is rewritten atomically and an unreadable or stale-schema
cache is simply ignored.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.analysis.findings import Finding

#: Versions the cache *file layout* only: a rule or rule-table change
#: reaches the fingerprint through :func:`analyzer_digest`.
CACHE_SCHEMA = 9


@dataclass(frozen=True)
class FileStamp:
    """One file's identity for cache validation."""

    relpath: str
    mtime_ns: int
    size: int
    sha256: str

    def to_json(self) -> Dict[str, Any]:
        """JSON-object form stored in the cache file."""
        return {
            "relpath": self.relpath,
            "mtime_ns": self.mtime_ns,
            "size": self.size,
            "sha256": self.sha256,
        }


def _relpath_for(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def compute_stamps(
    files: Sequence[Path],
    root: Path,
    previous: Optional[Dict[str, Dict[str, Any]]] = None,
) -> List[FileStamp]:
    """Stamps for ``files``, reusing previous hashes when mtime+size match."""
    previous = previous or {}
    stamps: List[FileStamp] = []
    for path in files:
        relpath = _relpath_for(path, root)
        stat = path.stat()
        cached = previous.get(relpath)
        if (
            cached is not None
            and cached.get("mtime_ns") == stat.st_mtime_ns
            and cached.get("size") == stat.st_size
        ):
            sha = str(cached["sha256"])
        else:
            sha = hashlib.sha256(path.read_bytes()).hexdigest()
        stamps.append(
            FileStamp(
                relpath=relpath,
                mtime_ns=stat.st_mtime_ns,
                size=stat.st_size,
                sha256=sha,
            )
        )
    stamps.sort(key=lambda stamp: stamp.relpath)
    return stamps


def analyzer_digest() -> str:
    """Hash of the analyzer's own sources, so that editing a rule or one
    of its tables invalidates every cached result."""
    package = Path(__file__).resolve().parents[1]
    digest = hashlib.sha256()
    for stamp in compute_stamps(sorted(package.rglob("*.py")), package):
        digest.update(f"{stamp.relpath}={stamp.sha256}\n".encode())
    return digest.hexdigest()


def run_fingerprint(
    stamps: Sequence[FileStamp],
    select: Sequence[str],
    analyzer: str,
) -> str:
    """One hash covering everything that can change the run's outcome
    (``analyzer`` is :func:`analyzer_digest`)."""
    digest = hashlib.sha256()
    digest.update(f"schema={CACHE_SCHEMA}\n".encode())
    digest.update(f"select={','.join(sorted(select))}\n".encode())
    digest.update(f"analyzer={analyzer}\n".encode())
    for stamp in stamps:
        digest.update(f"{stamp.relpath}={stamp.sha256}\n".encode())
    return digest.hexdigest()


@dataclass
class CachedResult:
    """The replayable portion of a :class:`LintResult`."""

    new_findings: List[Finding]
    suppressed: List[Finding]
    files_checked: int


class LintCache:
    """The on-disk cache around one run (load, lookup, store)."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self._data: Dict[str, Any] = {}
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            raw = {}
        if isinstance(raw, dict) and raw.get("schema") == CACHE_SCHEMA:
            self._data = raw

    @property
    def previous_stamps(self) -> Dict[str, Dict[str, Any]]:
        """relpath -> stamp fields from the previous run (mtime reuse)."""
        files = self._data.get("files")
        return files if isinstance(files, dict) else {}

    def lookup(self, fingerprint: str) -> Optional[CachedResult]:
        """The previous result if the fingerprint still matches."""
        if self._data.get("fingerprint") != fingerprint:
            return None
        result = self._data.get("result")
        if not isinstance(result, dict):
            return None
        try:
            return CachedResult(
                new_findings=_findings(result["new_findings"]),
                suppressed=_findings(result["suppressed"]),
                files_checked=int(result["files_checked"]),
            )
        except (KeyError, TypeError, ValueError):
            return None

    def store(
        self,
        fingerprint: str,
        stamps: Sequence[FileStamp],
        result: CachedResult,
    ) -> None:
        """Atomically persist this run (best effort: failures are silent
        -- a missing cache only costs the next run a cold start)."""
        payload = {
            "schema": CACHE_SCHEMA,
            "fingerprint": fingerprint,
            "files": {stamp.relpath: stamp.to_json() for stamp in stamps},
            "result": {
                "new_findings": [f.to_json() for f in result.new_findings],
                "suppressed": [f.to_json() for f in result.suppressed],
                "files_checked": result.files_checked,
            },
        }
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            handle, tmp_name = tempfile.mkstemp(
                dir=str(self.path.parent), prefix=self.path.name, suffix=".tmp"
            )
            try:
                with os.fdopen(handle, "w", encoding="utf-8") as tmp:
                    json.dump(payload, tmp, indent=2)
                os.replace(tmp_name, self.path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        except OSError:
            pass


def _findings(raw: Any) -> List[Finding]:
    if not isinstance(raw, list):
        raise TypeError("findings payload must be a list")
    return [Finding.from_json(entry) for entry in raw]
