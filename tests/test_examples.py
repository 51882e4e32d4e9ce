"""Smoke tests: every example must run to completion, and every
benchmark file must be run by CI.

Examples are the first thing a new user executes; these tests keep them
from rotting as the API evolves.  A benchmark nobody runs rots the same
way, silently.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
EXAMPLES_DIR = REPO / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


def test_examples_exist():
    assert len(EXAMPLES) >= 3, "the repo promises at least three examples"


def test_every_benchmark_file_is_run_by_ci():
    """``pytest`` collects ``benchmarks/`` only when told to, so a
    ``benchmarks/bench_*.py`` that the CI workflow does not name is a
    second, unrun measurement path (the spine, ``benchmarks/spine/``,
    is the one timing harness; there may be no bench file at all)."""
    workflow = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    benches = [
        path.relative_to(REPO).as_posix()
        for path in sorted((REPO / "benchmarks").glob("bench_*.py"))
    ]
    assert [bench for bench in benches if bench not in workflow] == []


@pytest.mark.slow
@pytest.mark.parametrize("example", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(example):
    result = subprocess.run(
        [sys.executable, str(example)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, (
        f"{example.name} failed:\n{result.stderr[-2000:]}"
    )
    assert result.stdout.strip(), f"{example.name} printed nothing"
