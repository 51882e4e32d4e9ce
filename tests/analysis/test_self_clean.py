"""The dogfood invariant: this repository passes its own analyzer.

This is the tier-1 enforcement of what the CI lint job checks -- a
rename before fsync or a seam handle closed only on the happy path
anywhere under ``src/`` fails the test suite even on machines that never
run CI.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import repro
from repro.analysis import run_lint

REPO_ROOT = Path(repro.__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"


def repo_layout_present() -> bool:
    """Skip gracefully when running from an installed wheel."""
    return (SRC / "repro").is_dir() and (REPO_ROOT / "pyproject.toml").exists()


@pytest.fixture(scope="module")
def src_result():
    """One full-tree run, shared by the tests that read it."""
    if not repo_layout_present():
        pytest.skip("not running from a source checkout")
    return run_lint([SRC], root=REPO_ROOT)


def test_source_tree_is_lint_clean(src_result):
    assert src_result.ok, "repro lint found new violations:\n" + src_result.render_text()


def test_every_inline_suppression_silences_a_finding(src_result):
    """A ``# repro-lint: disable=`` comment that silences nothing is an
    exemption without a reason: the code it excused changed, or its rule
    was deleted.  Each one must still suppress a finding of a rule it
    names, on its own line or (from a comment-only line) the line below."""
    silenced = [
        (finding.path, finding.line, finding.rule_id)
        for finding in src_result.suppressed
    ]
    idle = []
    for source in src_result.project.files:
        for line, rules in sorted(source.suppressions.items()):
            targets = {line}
            if source.lines[line - 1].lstrip().startswith("#"):
                targets.add(line + 1)
            if not any(
                path == source.relpath
                and hit in targets
                and ("all" in rules or rule_id in rules)
                for path, hit, rule_id in silenced
            ):
                idle.append(f"{source.relpath}:{line}: disable={','.join(sorted(rules))}")
    assert not idle, "suppressions that silence nothing:\n" + "\n".join(idle)


def test_every_registered_point_really_fires_in_the_sweep():
    """The registry the sweep iterates names each point once.  That
    each one fires is the sweep's own check (``outcome.fired ==
    point``), and that nothing fires an unregistered name is
    ``crash_point``'s (``tests/faults/test_faultyfs.py``)."""
    from repro.faults.crashpoints import ALL_CRASH_POINTS

    assert len(ALL_CRASH_POINTS) == len(set(ALL_CRASH_POINTS)) >= 15
