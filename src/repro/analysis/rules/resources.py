"""RES001: FileSystem-seam handles must be closed on every path.

Every handle in the write path comes from the
:class:`~repro.faults.fs.FileSystem` seam (``fs.open``), so the fault
harness can interpose on it.  A handle that leaks when an exception
fires between open and close is worse here than in ordinary code: the
kill-point sweep *deliberately* raises mid-write, so a leaked handle
keeps a ``.tmp`` file pinned, its buffered bytes unflushed, and the
crash-recovery assertions then exercise a state no real crash produces.

The rule accepts the three lifetimes the codebase actually uses:

* ``with fs.open(...) as handle:`` -- scoped;
* ``handle = fs.open(...)`` followed by ``handle.close()`` inside a
  ``finally`` block of the same function -- the atomic
  write-temp/fsync/replace idiom;
* ``self._file = fs.open(...)`` or ``self._files[key] = fs.open(...)``
  -- object-owned (directly or in a container the object owns), closed
  by the owner's ``close()``.

Everything else is flagged: a discarded ``fs.open(...)`` expression, a
handle passed straight into another call, or a local whose ``close()``
only runs on the happy path (an exception between open and close leaks
it -- move the close into ``finally`` or use ``with``).

The seam implementation itself (``repro/faults/fs.py``) is exempt, as
are receivers that do not look like a FileSystem (the same ``fs`` /
``*_fs`` naming heuristic DUR002 relies on).
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from repro.analysis.findings import Finding
from repro.analysis.project import Project, SourceFile
from repro.analysis.registry import Rule, register
from repro.analysis.rules.durability import _receiver_is_filesystem

_SEAM_IMPLEMENTATION = "repro/faults/fs.py"


def _seam_open_calls(func: ast.AST) -> List[ast.Call]:
    return [
        node
        for node in ast.walk(func)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "open"
        and _receiver_is_filesystem(node.func.value)
    ]


def _with_managed(func: ast.AST) -> Set[int]:
    """ids of open calls used as a ``with`` context expression."""
    managed: Set[int] = set()
    for node in ast.walk(func):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                managed.add(id(item.context_expr))
    return managed


def _assigned_name(func: ast.AST, call: ast.Call) -> Optional[ast.expr]:
    """The single assignment target when ``call`` is the right-hand side
    of an ``=``, else None."""
    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and node.value is call:
            if len(node.targets) == 1:
                return node.targets[0]
            return None
        if isinstance(node, ast.AnnAssign) and node.value is call:
            return node.target
    return None


def _close_calls(func: ast.AST, name: str) -> List[ast.Call]:
    return [
        node
        for node in ast.walk(func)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "close"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == name
    ]


def _in_finally(func: ast.AST, call: ast.Call) -> bool:
    for node in ast.walk(func):
        if isinstance(node, ast.Try) and any(
            candidate is call
            for statement in node.finalbody
            for candidate in ast.walk(statement)
        ):
            return True
    return False


@register
class SeamHandleLifetimeRule(Rule):
    """RES001: every fs.open handle is scoped, finally-closed, or
    object-owned."""

    rule_id = "RES001"

    def applies_to(self, relpath: str) -> bool:
        return not relpath.endswith(_SEAM_IMPLEMENTATION)

    def check_file(self, source: SourceFile, project: Project) -> List[Finding]:
        if source.tree is None:
            return []
        findings: List[Finding] = []
        for func in ast.walk(source.tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                findings.extend(self._check_function(source, func))
        return findings

    def _check_function(self, source: SourceFile, func: ast.AST) -> List[Finding]:
        findings: List[Finding] = []
        managed = _with_managed(func)

        def flag(call: ast.Call, why: str) -> None:
            findings.append(
                Finding(
                    path=source.relpath,
                    line=call.lineno,
                    rule_id=self.rule_id,
                    message=(
                        f"fs.open() handle {why}; the kill-point sweep "
                        "raises mid-write, so this leaks the handle (and "
                        "its unflushed bytes) exactly when crash recovery "
                        "is being tested -- use `with`, or close it in a "
                        "`finally`"
                    ),
                )
            )

        for call in _seam_open_calls(func):
            if id(call) in managed:
                continue
            target = _assigned_name(func, call)
            if target is None:
                flag(call, "is never bound to a name")
                continue
            if isinstance(target, ast.Subscript):
                target = target.value  # a slot: judged by its container
            if isinstance(target, ast.Attribute):
                continue  # object-owned handle; its owner's close() runs it
            if not isinstance(target, ast.Name):
                flag(call, "is unpacked into a structured target")
                continue
            closes = _close_calls(func, target.id)
            if not closes:
                flag(call, f"bound to {target.id!r} is never closed here")
            elif not any(_in_finally(func, close) for close in closes):
                flag(
                    call,
                    f"bound to {target.id!r} is only closed on the happy path",
                )
        return findings
