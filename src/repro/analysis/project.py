"""What the rules see: parsed source files and the project around them.

A :class:`SourceFile` bundles one file's text, AST and suppression
comments; a :class:`Project` is the set of files under analysis plus the
project root used to relativize paths.  Rules never touch the filesystem
directly -- everything they may look at is collected here first, which
keeps them unit-testable against fixture trees.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set

from repro.analysis.findings import Finding

#: Per-line suppression: a comment that *starts* ``# repro-lint:
#: disable=DUR002,RES001`` (or ``disable=all``).  Honored on the flagged
#: line itself or on a standalone comment line directly above it; the
#: same text quoted in a docstring or inside another comment is not one.
_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\s]+)")

_SKIP_DIR_NAMES = {"__pycache__", ".git", ".venv", "node_modules", ".mypy_cache"}


@dataclass
class SourceFile:
    """One parsed Python file under analysis."""

    path: Path
    relpath: str
    text: str
    tree: Optional[ast.AST]
    parse_error: Optional[SyntaxError] = None
    #: line number -> set of suppressed rule ids ("all" suppresses every rule)
    suppressions: Dict[int, Set[str]] = field(default_factory=dict)

    @property
    def lines(self) -> List[str]:
        return self.text.splitlines()

    def is_suppressed(self, line: int, rule_id: str) -> bool:
        """True when ``rule_id`` is disabled on ``line`` (same-line comment
        or a comment-only line directly above)."""
        for candidate in (line, line - 1):
            rules = self.suppressions.get(candidate)
            if not rules:
                continue
            if candidate == line - 1 and not self._comment_only(candidate):
                continue
            if "all" in rules or rule_id in rules:
                return True
        return False

    def _comment_only(self, line: int) -> bool:
        lines = self.lines
        if not 1 <= line <= len(lines):
            return False
        return lines[line - 1].lstrip().startswith("#")


def parse_source_file(path: Path, root: Path) -> SourceFile:
    """Read and parse one file; a syntax error becomes part of the record
    (the runner reports it) instead of aborting the whole run."""
    text = path.read_text(encoding="utf-8", errors="replace")
    try:
        relpath = path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        relpath = path.as_posix()
    tree: Optional[ast.AST] = None
    parse_error: Optional[SyntaxError] = None
    try:
        tree = ast.parse(text, filename=str(path))
    except SyntaxError as exc:
        parse_error = exc
    suppressions: Dict[int, Set[str]] = {}
    if tree is not None and "repro-lint" in text:
        for token in tokenize.generate_tokens(io.StringIO(text).readline):
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.match(token.string)
            if match is None:
                continue
            rules = {part.strip() for part in match.group(1).split(",") if part.strip()}
            if rules:
                suppressions[token.start[0]] = rules
    return SourceFile(
        path=path,
        relpath=relpath,
        text=text,
        tree=tree,
        parse_error=parse_error,
        suppressions=suppressions,
    )


@dataclass
class Project:
    """Every file under analysis, rooted for stable relative paths."""

    root: Path
    files: List[SourceFile]

    def parse_failures(self) -> List[Finding]:
        """Unparseable files become findings rather than crashes."""
        return [
            Finding(
                path=source.relpath,
                line=source.parse_error.lineno or 1,
                rule_id="PARSE000",
                message=f"file does not parse: {source.parse_error.msg}",
            )
            for source in self.files
            if source.parse_error is not None
        ]


def discover_files(paths: Sequence[Path]) -> List[Path]:
    """Expand the CLI's path arguments into a sorted list of ``.py`` files."""
    seen: Set[Path] = set()
    collected: List[Path] = []
    for path in paths:
        if path.is_file():
            candidates = [path] if path.suffix == ".py" else []
        elif path.is_dir():
            candidates = sorted(
                candidate
                for candidate in path.rglob("*.py")
                if not any(part in _SKIP_DIR_NAMES for part in candidate.parts)
            )
        else:
            raise FileNotFoundError(f"lint path {path} does not exist")
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                collected.append(candidate)
    return collected


def find_project_root(paths: Sequence[Path]) -> Path:
    """Walk up from the first input path looking for ``pyproject.toml``;
    fall back to the common parent so relative paths stay meaningful."""
    if not paths:
        return Path.cwd()
    start = paths[0].resolve()
    if start.is_file():
        start = start.parent
    for candidate in (start, *start.parents):
        if (candidate / "pyproject.toml").exists():
            return candidate
    return start


def build_project(paths: Sequence[Path], root: Optional[Path] = None) -> Project:
    """Discover, read and parse every file reachable from ``paths``."""
    files = discover_files(paths)
    resolved_root = root if root is not None else find_project_root(paths)
    return Project(
        root=resolved_root,
        files=[parse_source_file(path, resolved_root) for path in files],
    )
