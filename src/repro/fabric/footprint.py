"""Runtime side of chaincode key footprints.

Two halves, bridging the static analysis and the live peer:

* :class:`FootprintRecorder` -- captures, at endorsement time, the keys
  each ``(chaincode, fn)`` actually read and wrote (straight from the
  simulated RWSet) and writes them to ``footprint-report.json``.  The
  KEY003 lint rule cross-checks this witness file against the static
  footprints: a witnessed key outside every static namespace means the
  inference has a soundness hole.
* :class:`ChaincodeFootprint` -- loads the ``repro lint --footprint
  json`` export and answers the two questions the parallel validator
  asks: *which namespaces can transactions of this chaincode touch
  beyond their recorded RWSet* (hidden reads: ``get_history_for_key``
  is never recorded in the RWSet), and *is the chaincode's write set
  statically unbounded* (a ⊤ write).  Both force conservative conflict
  grouping.

The pattern semantics (``lit``/``pre``/``arg``/``top``, matching and
overlap) are imported from the analysis package so the runtime and the
rules can never disagree about what a namespace means.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.analysis.footprint.namespaces import (
    ARG,
    TOP,
    KeyPattern,
    matches,
)
from repro.common.locks import make_lock
from repro.fabric.block import RWSet
from repro.faults.fs import REAL_FS, FileSystem

#: Schema stamp of the dynamic witness report.
WITNESS_SCHEMA = 1


class FootprintRecorder:
    """Accumulates per-``(chaincode, fn)`` witnessed key accesses.

    Thread-safe: endorsement runs concurrently under the parallel test
    matrix, and the recorder is shared across all of a peer's proposals.
    """

    def __init__(self) -> None:
        self._lock = make_lock("FootprintRecorder._lock")
        self._reads: Dict[Tuple[str, str], Set[str]] = {}
        self._writes: Dict[Tuple[str, str], Set[str]] = {}

    def record(self, chaincode: str, fn: str, rw_set: RWSet) -> None:
        """Fold one endorsed RWSet into the witness sets."""
        read_keys = {read.key for read in rw_set.reads}
        write_keys = set(rw_set.writes)
        with self._lock:
            self._reads.setdefault((chaincode, fn), set()).update(read_keys)
            self._writes.setdefault((chaincode, fn), set()).update(write_keys)

    def to_json(self) -> Dict[str, Any]:
        """The witness report: sorted keys per (chaincode, fn)."""
        with self._lock:
            keys = sorted(set(self._reads) | set(self._writes))
            chaincodes: Dict[str, Dict[str, Any]] = {}
            for chaincode, fn in keys:
                chaincodes.setdefault(chaincode, {})[fn] = {
                    "reads": sorted(self._reads.get((chaincode, fn), ())),
                    "writes": sorted(self._writes.get((chaincode, fn), ())),
                }
        return {"schema": WITNESS_SCHEMA, "chaincodes": chaincodes}

    def write(self, path: str | Path, fs: FileSystem = REAL_FS) -> Path:
        """Write the witness report (the file KEY003 consumes)."""
        path = Path(path)
        payload = json.dumps(self.to_json(), indent=2, sort_keys=True)
        with fs.open(path, "wb") as handle:
            handle.write(payload.encode("utf-8"))
        return path


class ChaincodeFootprint:
    """Static footprints in the shape the parallel validator consumes.

    Merged per *chaincode* (a committed transaction records which
    chaincode produced it, not which dispatch arm), from the
    ``repro lint --footprint json`` export.
    """

    def __init__(self) -> None:
        #: Chaincode -> namespaces readable outside the RWSet (hidden
        #: reads) plus any ⊤ surface.
        self._hidden: Dict[str, List[KeyPattern]] = {}
        #: Chaincodes whose write namespace is statically unbounded.
        self._unbounded: Set[str] = set()
        #: Every chaincode the export covered (an uncovered chaincode is
        #: treated conservatively).
        self._known: Set[str] = set()

    @staticmethod
    def from_json(report: Dict[str, Any]) -> "ChaincodeFootprint":
        footprint = ChaincodeFootprint()
        for entry in report.get("entries", ()):
            chaincode = str(entry.get("chaincode", ""))
            if not chaincode:
                continue
            footprint._known.add(chaincode)
            hidden = footprint._hidden.setdefault(chaincode, [])
            for raw in entry.get("hidden_reads", ()):
                pattern = KeyPattern.from_json(raw)
                if pattern not in hidden:
                    hidden.append(pattern)
            for side in ("reads", "writes"):
                for raw in entry.get(side, ()):
                    pattern = KeyPattern.from_json(raw)
                    if pattern.kind == TOP:
                        if side == "writes":
                            footprint._unbounded.add(chaincode)
                        if pattern not in hidden:
                            hidden.append(pattern)
        return footprint

    @staticmethod
    def load(path: str | Path) -> "ChaincodeFootprint":
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        return ChaincodeFootprint.from_json(raw)

    def is_conservative(self, chaincode: str) -> bool:
        """Whether transactions of ``chaincode`` must all share one
        conflict group: the static pass never saw the chaincode, its
        write set is unbounded, or it reads through a ⊤ surface."""
        if chaincode not in self._known:
            return True
        if chaincode in self._unbounded:
            return True
        return any(p.kind in (TOP, ARG) for p in self._hidden.get(chaincode, ()))

    def hidden_surface(self, chaincode: str) -> List[KeyPattern]:
        """Namespaces ``chaincode`` can read without an RWSet record."""
        return list(self._hidden.get(chaincode, ()))

    def surface_touches(self, chaincode: str, key: str) -> bool:
        """Whether ``key`` falls inside the chaincode's hidden surface."""
        return any(
            matches(pattern, key) for pattern in self._hidden.get(chaincode, ())
        )


def load_footprint(path: str | Path) -> Optional[ChaincodeFootprint]:
    """Best-effort load (``None`` on absent/invalid file): the validator
    treats a missing footprint as "group by RWSet keys only"."""
    try:
        return ChaincodeFootprint.load(path)
    except (OSError, ValueError):
        return None
