"""Deterministic fault injection and crash recovery.

The subsystem has four parts:

* :mod:`repro.faults.fs` -- the ``FileSystem`` seam the storage layer
  writes through.  ``REAL_FS`` delegates to the builtins; ``FaultyFS``
  buffers in userspace so a simulated kill loses exactly the unflushed
  bytes (and a power loss everything past the last fsync).
* :mod:`repro.faults.plan` -- ``FaultPlan``: a seeded schedule of torn
  writes, bit flips, lost renames and crash-point hits.
* :mod:`repro.faults.crashpoints` -- named points on the commit and
  indexing paths; ``crash_point(NAME)`` costs one global ``is None``
  check until a plan is armed with ``active_plan``.
* :mod:`repro.faults.doctor` -- offline consistency checker for a
  (possibly crashed) ledger directory; import it explicitly, it pulls in
  the whole fabric layer.
"""

from repro.faults.crashpoints import (
    ALL_CRASH_POINTS,
    COMMIT_CRASH_POINTS,
    M1_CRASH_POINTS,
    active_plan,
    crash_point,
)
from repro.faults.fs import REAL_FS, FaultyFS, FaultyReadFile, FileSystem
from repro.faults.plan import FaultPlan

__all__ = [
    "ALL_CRASH_POINTS",
    "COMMIT_CRASH_POINTS",
    "M1_CRASH_POINTS",
    "active_plan",
    "crash_point",
    "REAL_FS",
    "FaultyFS",
    "FaultyReadFile",
    "FileSystem",
    "FaultPlan",
]
