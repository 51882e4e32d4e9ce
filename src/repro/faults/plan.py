"""Deterministic fault schedules.

A :class:`FaultPlan` decides, from a seed and explicit triggers, exactly
when a fault fires: at the Nth arrival at a named crash point, during the
Nth write to files matching a glob (torn write), or as a silent bit flip
inside a write payload.  Determinism matters: a failing crash-recovery
test must replay bit-for-bit identically from its seed.

The plan is consulted from two directions:

* :func:`repro.faults.crashpoints.crash_point` calls
  :meth:`on_crash_point` from instrumented pipeline locations;
* :class:`repro.faults.fs.FaultyFS` calls :meth:`on_write` /
  :meth:`on_flush` / :meth:`on_replace` / :meth:`on_read` from the file
  layer.

Beyond crashes and corruption, a plan can schedule *read-side* faults:
:meth:`fail_reads` makes the nth read of a matching file raise an
``EIO``-style :class:`OSError` (intermittent media errors).
"""

from __future__ import annotations

import errno as errno_module
import os
import random
from fnmatch import fnmatch
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.common.errors import SimulatedCrashError

__all__ = ["FaultPlan"]


class FaultPlan:
    """A seeded, explicit schedule of crashes and corruptions."""

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)
        self._crash_point_target: Optional[Tuple[str, int]] = None
        self._write_crash: Optional[Tuple[str, int, bool]] = None
        self._replace_crash: Optional[Tuple[str, int]] = None
        self._bit_flips: List[Tuple[str, int]] = []
        # (pattern, errno, nth, per-file counts when scheduled)
        self._read_faults: List[Tuple[str, int, int, Dict[str, int]]] = []
        #: How often each crash point was reached (observability for tests).
        self.point_counts: Dict[str, int] = {}
        self._write_counts: Dict[str, int] = {}
        self._replace_counts: Dict[str, int] = {}
        self._read_counts: Dict[str, int] = {}
        #: Set once a scheduled fault has fired.
        self.fired: Optional[str] = None

    # -- scheduling -------------------------------------------------------

    def crash_at(self, point: str, occurrence: int = 1) -> "FaultPlan":
        """Crash the ``occurrence``-th time ``point`` is reached."""
        if occurrence < 1:
            raise ValueError(f"occurrence must be >= 1, got {occurrence}")
        self._crash_point_target = (point, occurrence)
        return self

    def crash_on_write(
        self, pattern: str, nth: int = 1, torn: bool = True
    ) -> "FaultPlan":
        """Crash during the ``nth`` write to a file matching ``pattern``.

        With ``torn=True`` a seeded strict prefix of the payload reaches
        the simulated OS first -- the classic torn write.
        """
        if nth < 1:
            raise ValueError(f"nth must be >= 1, got {nth}")
        self._write_crash = (pattern, nth, torn)
        return self

    def crash_on_replace(self, pattern: str, nth: int = 1) -> "FaultPlan":
        """Crash just before the ``nth`` atomic replace whose *destination*
        matches ``pattern`` (the temp file survives, the target does not
        change -- what ``os.replace`` atomicity guarantees)."""
        if nth < 1:
            raise ValueError(f"nth must be >= 1, got {nth}")
        self._replace_crash = (pattern, nth)
        return self

    def flip_bit(self, pattern: str, nth_write: int = 1) -> "FaultPlan":
        """Silently flip one seeded bit inside the ``nth_write``-th write
        to files matching ``pattern`` (no crash: the corruption must be
        *detected* later by checksums, not observed happening)."""
        if nth_write < 1:
            raise ValueError(f"nth_write must be >= 1, got {nth_write}")
        self._bit_flips.append((pattern, nth_write))
        return self

    def fail_reads(
        self, pattern: str, errno: int = errno_module.EIO, nth: int = 1
    ) -> "FaultPlan":
        """Make the ``nth`` read of files matching ``pattern`` raise an
        ``OSError`` with ``errno`` (default ``EIO``).

        Counting starts *from this call*: reads a file already absorbed
        (say, during recovery replay before the harness armed the plan)
        do not consume the schedule.  The fault is intermittent, as real
        media errors are: only that one read fails; earlier and later
        reads of the same file succeed.  Schedule several to model a
        persistently sick disk.

        A read is one consultation of the seam: a ``read``/``readline``
        on a handle, or one ``FileSystem.pread``.  A block read is a
        single ``pread`` of the whole record, so against ``blockfile_*``
        ``nth`` counts *blocks* read from that file.
        """
        if nth < 1:
            raise ValueError(f"nth must be >= 1, got {nth}")
        self._read_faults.append((pattern, errno, nth, dict(self._read_counts)))
        return self

    # -- hooks ------------------------------------------------------------

    def on_crash_point(self, name: str) -> None:
        """Count an arrival at ``name``; crash if it is the scheduled one."""
        count = self.point_counts.get(name, 0) + 1
        self.point_counts[name] = count
        if self._crash_point_target is None:
            return
        point, occurrence = self._crash_point_target
        if name == point and count == occurrence:
            self.fired = name
            raise SimulatedCrashError(name)

    def on_write(self, handle, data: bytes) -> bytes:
        """Apply scheduled bit flips to ``data``; fire a (possibly torn)
        write crash if this is the scheduled write."""
        name = handle.path.name
        count = self._write_counts.get(name, 0) + 1
        self._write_counts[name] = count
        for pattern, nth in self._bit_flips:
            if fnmatch(name, pattern) and count == nth and data:
                data = self._flip_one_bit(data)
        if self._write_crash is not None:
            pattern, nth, torn = self._write_crash
            if fnmatch(name, pattern) and count == nth:
                self.fired = f"write:{name}"
                if torn and len(data) > 1:
                    keep = self._rng.randrange(1, len(data))
                    handle._buffer.extend(data[:keep])
                    handle._drain_buffer()
                raise SimulatedCrashError(f"write:{name}")
        return data

    def on_flush(self, handle) -> None:
        """Flushes currently never fault on their own; the write and
        crash-point hooks cover every schedule the harness needs."""

    def on_read(self, path: Path) -> None:
        """Fail if this is the scheduled read of ``path`` (called by the
        seam before each read)."""
        name = path.name
        count = self._read_counts.get(name, 0) + 1
        self._read_counts[name] = count
        for pattern, code, nth, baseline in self._read_faults:
            if fnmatch(name, pattern) and count - baseline.get(name, 0) == nth:
                self.fired = f"read:{name}"
                raise OSError(code, os.strerror(code), str(path))

    def on_replace(self, src: Path, dst: Path) -> None:
        """Crash before the rename if its destination is the scheduled one."""
        if self._replace_crash is None:
            return
        pattern, nth = self._replace_crash
        if not fnmatch(dst.name, pattern):
            return
        count = self._replace_counts.get(pattern, 0) + 1
        self._replace_counts[pattern] = count
        if count == nth:
            self.fired = f"replace:{dst.name}"
            raise SimulatedCrashError(f"replace:{dst.name}")

    def _flip_one_bit(self, data: bytes) -> bytes:
        mutated = bytearray(data)
        position = self._rng.randrange(len(mutated))
        mutated[position] ^= 1 << self._rng.randrange(8)
        return bytes(mutated)
