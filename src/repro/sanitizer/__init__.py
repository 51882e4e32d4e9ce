"""repro-san: a dynamic happens-before / lockset race sanitizer.

It owns every concurrency bug class that needs two threads to show:
unlocked container reads and mutations, check-then-act splits across a
release/reacquire, lock-order cycles and a plain ``Lock`` re-acquired
by its holder.  The two static rules
(:mod:`repro.analysis.rules.concurrency`) own the rest: CONC001, an
unlocked attribute rebind on a path no threaded test drives, and
CONC003, blocking under a lock.  DESIGN.md §6 has the owner table.  The
engine is in the FastTrack + Eraser tradition:

* a **happens-before engine** (:mod:`repro.sanitizer.runtime`) keeps a
  vector clock per thread, with edges from lock release -> acquire
  and thread fork/join;
* **lockset tracking** records which traced locks each thread holds;
  an access pair is a race only when the clocks say *concurrent* AND
  the locksets are *disjoint* -- combining the two kills each one's
  false positives;
* **shadow state** lives per ``(object, attribute)`` on classes that
  opt in with :func:`~repro.sanitizer.shared.sanitize_shared`; both
  attribute rebinds and first-level container operations (dict/list
  reads and mutations) are events;
* the **traced lock seam** (:mod:`repro.sanitizer.locks`) implements
  :class:`~repro.common.locks.ConcurrencyFactory`, so every product
  lock construction routes through it permanently and the sanitizer
  can be switched on at any point in the process lifetime;
* a **schedule fuzzer** (:mod:`repro.sanitizer.fuzz`) perturbs thread
  interleavings at lock/seam boundaries from one seed, flushing out
  schedule-dependent bugs the default schedule never hits.

Entry points: ``repro san`` (CLI, runs the built-in concurrency
scenarios) and ``REPRO_SAN=1 pytest`` (whole-suite mode via
``tests/conftest.py``).  See docs/static-analysis.md for the owner
table and the race-report runbook.
"""

from __future__ import annotations

from repro.sanitizer.report import AccessWitness, RaceReport, SanitizerReport
from repro.sanitizer.runtime import (
    Sanitizer,
    active,
    disable,
    enable,
    sanitized,
)
from repro.sanitizer.shared import sanitize_shared

__all__ = [
    "AccessWitness",
    "RaceReport",
    "SanitizerReport",
    "Sanitizer",
    "active",
    "disable",
    "enable",
    "sanitized",
    "sanitize_shared",
]
