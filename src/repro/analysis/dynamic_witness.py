"""Cross-check dynamic race witnesses against static CONC findings.

The static rules (CONC001-004) and the dynamic sanitizer look for the
same class of bug with opposite blind spots: the lint sees every code
path but cannot know which objects are actually shared across threads;
the sanitizer only sees executed interleavings but every report it makes
is a concrete witness.  ``repro lint --dynamic-witness race-report.json``
joins the two:

* a **race** whose witness sites land in a file carrying a CONC finding
  *confirms* that finding (the static suspicion has a runtime witness);
* a race in a file with no CONC finding is **statically invisible** --
  the most valuable kind, since it names a pattern the rules miss;
* a CONC finding with no dynamic witness is **unwitnessed** -- possibly
  a false positive, possibly an interleaving the scenarios never hit.

Exit semantics stay strict: any dynamic race fails the run, witnessed
or not, because a race report is never a false alarm about *behaviour*
(both accesses really happened with no ordering between them).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.analysis.findings import Finding
from repro.analysis.runner import LintResult, run_lint
from repro.sanitizer.report import RaceReport, SanitizerReport


def _race_files(race: RaceReport) -> Tuple[str, ...]:
    """Every project-relative file named by either witness."""
    return tuple({race.first.path, race.second.path})


@dataclass
class BridgeResult:
    """The joined static/dynamic verdict for one report + one lint run."""

    report: SanitizerReport
    lint: LintResult
    #: (finding, confirming race) pairs: static suspicion, runtime proof.
    confirmed: List[Tuple[Finding, RaceReport]] = field(default_factory=list)
    #: CONC findings no race touched (false positive or unexplored path).
    unwitnessed: List[Finding] = field(default_factory=list)
    #: Races in files the static rules found nothing in.
    invisible: List[RaceReport] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Races always fail; static-only findings keep lint semantics."""
        return self.report.ok and self.lint.ok

    def render_text(self) -> str:
        """Human-readable cross-check: verdict per race and per finding."""
        lines = [
            f"dynamic-witness: {len(self.report.races)} race(s) from "
            f"{self.report.source} (seed={self.report.seed}, "
            f"workers={self.report.workers}) vs "
            f"{len(self._conc_findings())} static CONC finding(s)"
        ]
        for finding, race in self.confirmed:
            lines.append(f"CONFIRMED {finding.render()}")
            lines.append(f"  by {race.kind} race on {race.cell()} "
                         f"({race.second.site()})")
        for race in self.invisible:
            lines.append(f"STATICALLY-INVISIBLE race on {race.cell()}:")
            for part in race.render().splitlines()[1:]:
                lines.append(f"  {part.strip()}")
        for finding in self.unwitnessed:
            lines.append(f"UNWITNESSED {finding.render()}")
        if self.report.lock_order_cycles:
            for cycle in self.report.lock_order_cycles:
                lines.append(
                    "DYNAMIC LOCK-ORDER CYCLE: "
                    + " -> ".join(cycle.get("locks", []))
                )
        lines.append(
            f"verdict: {len(self.confirmed)} confirmed, "
            f"{len(self.invisible)} statically invisible, "
            f"{len(self.unwitnessed)} unwitnessed"
        )
        return "\n".join(lines)

    def render_json(self) -> str:
        """Machine-readable cross-check for CI annotation."""
        return json.dumps(
            {
                "version": 1,
                "ok": self.ok,
                "races": len(self.report.races),
                "conc_findings": len(self._conc_findings()),
                "confirmed": [
                    {"finding": finding.to_json(), "race": race.to_json()}
                    for finding, race in self.confirmed
                ],
                "invisible": [race.to_json() for race in self.invisible],
                "unwitnessed": [
                    finding.to_json() for finding in self.unwitnessed
                ],
                "lock_order_cycles": list(self.report.lock_order_cycles),
            },
            indent=2,
        )

    def _conc_findings(self) -> List[Finding]:
        """Every CONC finding the lint produced."""
        return [
            finding
            for finding in self.lint.new_findings
            if finding.rule_id.startswith("CONC")
        ]


def cross_check(
    report_path: str | Path,
    paths: Sequence[Path],
    root: Optional[Path] = None,
) -> BridgeResult:
    """Load a race report, run the CONC rules, and join the verdicts.

    Matching is per file: a race confirms a finding when either witness
    site lives in the finding's file.  That is deliberately coarse --
    the static finding's line is where the *pattern* is (a lock-free
    method body), the dynamic witness's line is where the *access*
    happened, and the two rarely coincide exactly.
    """
    report = SanitizerReport.load(report_path)
    lint = run_lint(
        list(paths),
        root=root,
        select=("CONC",),
        cache_path=None,
    )
    result = BridgeResult(report=report, lint=lint)
    findings = result._conc_findings()
    witnessed: set = set()
    for race in report.races:
        files = set(_race_files(race))
        matched = False
        for index, finding in enumerate(findings):
            if finding.path in files:
                result.confirmed.append((finding, race))
                witnessed.add(index)
                matched = True
        if not matched:
            result.invisible.append(race)
    result.unwitnessed = [
        finding
        for index, finding in enumerate(findings)
        if index not in witnessed
    ]
    return result
