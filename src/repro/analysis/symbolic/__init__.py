"""Symbolic interval-algebra verifier for the temporal interval scheme.

The engine behind the TEMP002/TEMP004 rule families: it loads the
analyzed project's ``temporal/intervals.py`` (:mod:`.loader`),
materializes symbolic boundary/window terms over a ``u``-grid
(:mod:`.terms`), checks the interval and scheme axioms
(:mod:`.axioms`), and reports convicted violations as
line-anchored findings (:mod:`.verifier`).  A seeded property-based
fuzzer (:mod:`.fuzz`) attacks the same axioms with random tuples and
bridges CONFIRMED / UNWITNESSED / STATICALLY-INVISIBLE verdicts against
the static findings; :mod:`.report` packages everything as the
``scheme-report.json`` artifact.
"""

from repro.analysis.symbolic.axioms import Violation
from repro.analysis.symbolic.fuzz import (
    SchemeBridge,
    SchemeFuzzReport,
    bridge,
    fuzz_project,
)
from repro.analysis.symbolic.report import build_scheme_report, render_scheme_report
from repro.analysis.symbolic.terms import K_RANGE, U_GRID, Lin
from repro.analysis.symbolic.verifier import SchemeVerification, verify_project

__all__ = [
    "K_RANGE",
    "Lin",
    "SchemeBridge",
    "SchemeFuzzReport",
    "SchemeVerification",
    "U_GRID",
    "Violation",
    "bridge",
    "build_scheme_report",
    "fuzz_project",
    "render_scheme_report",
    "verify_project",
]
