"""Drive a lint run: discover, parse, check, suppress, baseline, report."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.analysis.baseline import (
    apply_baseline,
    load_baseline,
    prune_baseline,
    save_baseline,
)
from repro.analysis.dataflow.cache import (
    CachedResult,
    LintCache,
    analyzer_digest,
    baseline_digest,
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
from repro.analysis.registry import all_rules, instantiate


@dataclass
class LintResult:
    """Everything one run produced."""

    project: Project
    #: Findings that survived suppressions and the baseline: these fail CI.
    new_findings: List[Finding]
    #: True when this result was replayed from the mtime+SHA cache (its
    #: ``project`` then carries no parsed files).
    from_cache: bool = False
    #: Findings absorbed by the baseline (reported, non-fatal).
    baselined: List[Finding] = field(default_factory=list)
    #: Baseline entries that matched nothing (the baseline should shrink).
    stale_baseline: List[Finding] = field(default_factory=list)
    #: Baseline entries dropped before matching because their file or
    #: rule no longer exists, each with the reason (warned, non-fatal).
    dropped_baseline: List[Tuple[Finding, str]] = field(default_factory=list)
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
        if self.stale_baseline:
            lines.append("")
            lines.append("stale baseline entries (fixed findings -- remove them):")
            for entry in self.stale_baseline:
                lines.append(f"  {entry.render()}")
        if self.dropped_baseline:
            lines.append("")
            lines.append(
                "warning: dropped baseline entries (remove them from the file):"
            )
            for entry, reason in self.dropped_baseline:
                lines.append(f"  {entry.render()} -- {reason}")
        summary = (
            f"repro-lint: {self.files_checked} files, "
            f"{len(self.new_findings)} new finding(s)"
        )
        extras = []
        if self.baselined:
            extras.append(f"{len(self.baselined)} baselined")
        if self.suppressed:
            extras.append(f"{len(self.suppressed)} suppressed")
        if extras:
            summary += f" ({', '.join(extras)})"
        lines.append(summary)
        return "\n".join(lines)

    def render_json(self) -> str:
        """Machine-readable report for CI annotation (``--format json``)."""
        return json.dumps(
            {
                "version": 1,
                "ok": self.ok,
                "files_checked": self.files_checked,
                "findings": [finding.to_json() for finding in self.new_findings],
                "baselined": [finding.to_json() for finding in self.baselined],
                "stale_baseline": [
                    entry.to_json() for entry in self.stale_baseline
                ],
                "dropped_baseline": [
                    {**entry.to_json(), "reason": reason}
                    for entry, reason in self.dropped_baseline
                ],
                "suppressed": [finding.to_json() for finding in self.suppressed],
            },
            indent=2,
        )


def run_lint(
    paths: Sequence[Path],
    root: Optional[Path] = None,
    baseline_path: Optional[Path] = None,
    select: Sequence[str] = (),
    write_baseline: bool = False,
    cache_path: Optional[Path] = None,
) -> LintResult:
    """Run every (selected) rule over ``paths``.

    ``baseline_path`` pointing at a missing file is treated as an empty
    baseline, so a fresh checkout with no grandfathered findings needs
    no baseline file at all.  With ``write_baseline`` the current
    findings (post-suppression) *become* the baseline and the run
    reports clean.

    ``cache_path`` enables the whole-run mtime+SHA cache: when no input
    file, the selection, the baseline or the analyzer's own source
    changed since the last run, the previous result is replayed without
    parsing anything (the replayed result's ``project`` is empty).  A
    relative ``cache_path`` is anchored at the project root.
    Baseline-writing runs bypass it.
    """
    # Validate the selection *before* the cache lookup: an invalid
    # --select must be a usage error even when a previous run's result
    # could be replayed (the cache fingerprint cannot tell a blank
    # selection from "all rules").
    rules = instantiate(select)

    cache: Optional[LintCache] = None
    stamps = None
    fingerprint = None
    if cache_path is not None and not write_baseline:
        files = discover_files(paths)
        resolved_root = root if root is not None else find_project_root(paths)
        if not cache_path.is_absolute():
            # Anchor at the project root, not the CWD, so every checkout
            # (and every fixture project in the tests) gets its own cache.
            cache_path = resolved_root / cache_path
        cache = LintCache(cache_path)
        stamps = compute_stamps(files, resolved_root, cache.previous_stamps)
        fingerprint = run_fingerprint(
            stamps, select, baseline_digest(baseline_path), analyzer_digest()
        )
        cached = cache.lookup(fingerprint)
        if cached is not None:
            return LintResult(
                project=Project(root=resolved_root, files=[]),
                new_findings=cached.new_findings,
                from_cache=True,
                baselined=cached.baselined,
                stale_baseline=cached.stale_baseline,
                dropped_baseline=cached.dropped_baseline,
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

    if write_baseline:
        if baseline_path is None:
            raise ValueError("write_baseline requires a baseline path")
        save_baseline(baseline_path, active)
        return LintResult(
            project=project,
            new_findings=[],
            baselined=active,
            suppressed=suppressed,
            files_checked=len(project.files),
        )

    baseline: List[Finding] = []
    dropped: List[Tuple[Finding, str]] = []
    if baseline_path is not None and baseline_path.exists():
        baseline, dropped = prune_baseline(
            load_baseline(baseline_path), project.root, all_rules()
        )
    new, stale = apply_baseline(active, baseline)
    absorbed = [finding for finding in active if finding not in new]
    result = LintResult(
        project=project,
        new_findings=new,
        baselined=absorbed,
        stale_baseline=stale,
        dropped_baseline=dropped,
        suppressed=suppressed,
        files_checked=len(project.files),
    )
    if cache is not None and stamps is not None and fingerprint is not None:
        cache.store(
            fingerprint,
            stamps,
            CachedResult(
                new_findings=result.new_findings,
                baselined=result.baselined,
                stale_baseline=result.stale_baseline,
                dropped_baseline=result.dropped_baseline,
                suppressed=result.suppressed,
                files_checked=result.files_checked,
            ),
        )
    return result
