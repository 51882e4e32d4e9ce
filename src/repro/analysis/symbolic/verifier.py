"""Orchestrate one symbolic verification pass over a project.

:func:`verify_project` loads the project's temporal modules (see
:mod:`repro.analysis.symbolic.loader`), drives every interval class
and scheme class through the axiom checks of
:mod:`repro.analysis.symbolic.axioms`, and converts the convicted
violations into :class:`~repro.analysis.findings.Finding` records
anchored at the offending ``def`` line.

The pass is memoized on the project object (the same idiom the lockset
analysis uses): TEMP002 and TEMP004 both consume the same
verification, and the scheme-report artifact reuses it again, so the
probe grid runs once per lint invocation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.analysis.findings import Finding
from repro.analysis.project import Project
from repro.analysis.symbolic.axioms import (
    Tally,
    Violation,
    check_interval_class,
    check_scheme_class,
)
from repro.analysis.symbolic.loader import LoadedTemporal, load_temporal
from repro.analysis.symbolic.terms import U_GRID

_CACHE_ATTR = "_scheme_verification"


@dataclass
class SchemeVerification:
    """Everything one symbolic pass over a project established."""

    violations: List[Violation] = field(default_factory=list)
    findings: List[Finding] = field(default_factory=list)
    #: Individual axiom checks executed (reported and benchmarked).
    checks: int = 0
    #: Per-class descriptors for the scheme-report artifact.
    interval_classes: List[Dict[str, Any]] = field(default_factory=list)
    schemes: List[Dict[str, Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def findings_for(self, rule_id: str) -> List[Finding]:
        """This pass's findings for one rule family."""
        return [f for f in self.findings if f.rule_id == rule_id]


def _finding(loaded: LoadedTemporal, violation: Violation) -> Finding:
    """Anchor one violation at its method's definition line."""
    return Finding(
        path=violation.relpath,
        line=loaded.anchor(violation.class_name, violation.method),
        rule_id=violation.rule,
        message=(
            f"{violation.class_name}.{violation.method}: "
            f"{violation.kind}: {violation.witness}"
        ),
    )


def _descriptor(cls: type, relpath: str, violations: List[Violation]) -> Dict[str, Any]:
    convicted = sorted(
        {v.rule for v in violations if v.class_name == cls.__name__}
    )
    return {
        "class": cls.__name__,
        "file": relpath,
        "verified": not convicted,
        "convicted_rules": convicted,
    }


def verify_project(project: Project) -> SchemeVerification:
    """The memoized symbolic verification for ``project`` (the same
    caching idiom as the lockset analysis: one probe-grid run serves
    TEMP002, TEMP004 and the scheme-report artifact alike)."""
    cached = getattr(project, _CACHE_ATTR, None)
    if cached is None:
        cached = _verify(project)
        project._scheme_verification = cached  # type: ignore[attr-defined]
    return cached


def _verify(project: Project) -> SchemeVerification:
    tally = Tally()
    result = SchemeVerification()
    for loaded in load_temporal(project):
        result.notes.extend(loaded.notes)
        relpath = loaded.intervals_file.relpath
        violations: List[Violation] = []

        ti_cls = loaded.interval_class()
        if ti_cls is not None:
            class_violations = check_interval_class(ti_cls, relpath, tally)
            violations.extend(class_violations)
            result.interval_classes.append(
                _descriptor(ti_cls, relpath, class_violations)
            )

        for cls in loaded.scheme_classes():
            scheme_violations = check_scheme_class(
                cls, ti_cls, relpath, tally, result.notes
            )
            violations.extend(scheme_violations)
            result.schemes.append(_descriptor(cls, relpath, scheme_violations))

        result.violations.extend(violations)
        result.findings.extend(
            _finding(loaded, violation) for violation in violations
        )

    result.checks = tally.checks
    if result.schemes:
        result.notes.append(
            f"probe grid: u in {list(U_GRID)}, {result.checks} checks"
        )
    result.findings.sort()
    return result
