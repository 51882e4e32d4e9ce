"""Drive a lint run: discover, parse, check, suppress, report."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis.dataflow.cache import (
    CachedResult,
    LintCache,
    analyzer_digest,
    compute_stamps,
    run_fingerprint,
)
from repro.analysis.findings import Finding
from repro.analysis.project import (
    Project,
    build_project,
    discover_files,
    find_project_root,
)
from repro.analysis.registry import instantiate


@dataclass
class LintResult:
    """Everything one run produced."""

    project: Project
    #: Findings that survived suppressions: these fail CI.
    new_findings: List[Finding]
    #: True when this result was replayed from the mtime+SHA cache (its
    #: ``project`` then carries no parsed files).
    from_cache: bool = False
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
    cache_path: Optional[Path] = None,
) -> LintResult:
    """Run every (selected) rule over ``paths``.

    ``cache_path`` enables the whole-run mtime+SHA cache: when no input
    file, the selection or the analyzer's own source changed since the
    last run, the previous result is replayed without parsing anything
    (the replayed result's ``project`` is empty).  A relative
    ``cache_path`` is anchored at the project root.
    """
    # Validate the selection *before* the cache lookup: an invalid
    # --select must be a usage error even when a previous run's result
    # could be replayed (the cache fingerprint cannot tell a blank
    # selection from "all rules").
    rules = instantiate(select)

    cache: Optional[LintCache] = None
    stamps = None
    fingerprint = None
    if cache_path is not None:
        files = discover_files(paths)
        resolved_root = root if root is not None else find_project_root(paths)
        if not cache_path.is_absolute():
            # Anchor at the project root, not the CWD, so every checkout
            # (and every fixture project in the tests) gets its own cache.
            cache_path = resolved_root / cache_path
        cache = LintCache(cache_path)
        stamps = compute_stamps(files, resolved_root, cache.previous_stamps)
        fingerprint = run_fingerprint(stamps, select, analyzer_digest())
        cached = cache.lookup(fingerprint)
        if cached is not None:
            return LintResult(
                project=Project(root=resolved_root, files=[]),
                new_findings=cached.new_findings,
                from_cache=True,
                suppressed=cached.suppressed,
                files_checked=cached.files_checked,
            )

    project = build_project(paths, root=root)

    raw: List[Finding] = list(project.parse_failures())
    for rule in rules:
        for source in project.files:
            if source.tree is not None and rule.applies_to(source.relpath):
                raw.extend(rule.check_file(source, project))
        raw.extend(rule.check_project(project))

    suppressed: List[Finding] = []
    active: List[Finding] = []
    sources_by_path = {source.relpath: source for source in project.files}
    for finding in sorted(raw):
        source = sources_by_path.get(finding.path)
        if source is not None and source.is_suppressed(finding.line, finding.rule_id):
            suppressed.append(finding)
        else:
            active.append(finding)

    result = LintResult(
        project=project,
        new_findings=active,
        suppressed=suppressed,
        files_checked=len(project.files),
    )
    if cache is not None and stamps is not None and fingerprint is not None:
        cache.store(
            fingerprint,
            stamps,
            CachedResult(
                new_findings=result.new_findings,
                suppressed=result.suppressed,
                files_checked=result.files_checked,
            ),
        )
    return result
