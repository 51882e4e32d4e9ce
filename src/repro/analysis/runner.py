"""Drive a lint run: discover, parse, check, suppress, report."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis.findings import Finding
from repro.analysis.project import Project, build_project
from repro.analysis.registry import instantiate


@dataclass
class LintResult:
    """Everything one run produced."""

    project: Project
    #: Findings that survived suppressions: these fail CI.
    new_findings: List[Finding]
    #: Findings silenced by ``# repro-lint: disable=...`` comments.
    suppressed: List[Finding] = field(default_factory=list)
    files_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.new_findings

    def render_text(self) -> str:
        """Human-readable report: one line per finding plus a summary."""
        lines: List[str] = []
        for finding in self.new_findings:
            lines.append(finding.render())
        summary = (
            f"repro-lint: {self.files_checked} files, "
            f"{len(self.new_findings)} new finding(s)"
        )
        if self.suppressed:
            summary += f" ({len(self.suppressed)} suppressed)"
        lines.append(summary)
        return "\n".join(lines)

    def render_json(self) -> str:
        """Machine-readable report for CI annotation (``--format json``)."""
        return json.dumps(
            {
                "version": 2,
                "ok": self.ok,
                "files_checked": self.files_checked,
                "findings": [finding.to_json() for finding in self.new_findings],
                "suppressed": [finding.to_json() for finding in self.suppressed],
            },
            indent=2,
        )


def run_lint(
    paths: Sequence[Path],
    root: Optional[Path] = None,
    select: Sequence[str] = (),
) -> LintResult:
    """Run every (selected) rule over ``paths``."""
    rules = instantiate(select)
    project = build_project(paths, root=root)

    raw: List[Finding] = list(project.parse_failures())
    for rule in rules:
        for source in project.files:
            if source.tree is not None and rule.applies_to(source.relpath):
                raw.extend(rule.check_file(source, project))

    suppressed: List[Finding] = []
    active: List[Finding] = []
    sources_by_path = {source.relpath: source for source in project.files}
    for finding in sorted(raw):
        source = sources_by_path.get(finding.path)
        if source is not None and source.is_suppressed(finding.line, finding.rule_id):
            suppressed.append(finding)
        else:
            active.append(finding)

    return LintResult(
        project=project,
        new_findings=active,
        suppressed=suppressed,
        files_checked=len(project.files),
    )
