"""DUR002: a rename must finalize a file that was fsynced first.

Atomic finalization is write-temp / flush+fsync / rename.  Renaming a
temp file whose bytes may still sit in the page cache re-orders against
the metadata update on many filesystems, so a power loss can leave the
*final* name with truncated content -- exactly the subtle failure mode
the state-db literature warns about.  The rule requires a
``*.fsync(...)`` call before any ``fs.replace(...)`` in the same
function (conditional fsyncs satisfy it: the ``durability="flush"``
configuration loosens the guarantee on purpose).

The rule only polices the write path -- ``repro/storage/``,
``repro/fabric/`` and ``repro/faults/`` -- and skips
``repro/faults/fs.py`` itself, which *is* the seam.
"""

from __future__ import annotations

import ast
from typing import List

from repro.analysis.findings import Finding
from repro.analysis.project import Project, SourceFile
from repro.analysis.registry import Rule, register

_SCOPES = ("repro/storage/", "repro/fabric/", "repro/faults/")
_SEAM_IMPLEMENTATION = "repro/faults/fs.py"


def _in_write_path(relpath: str) -> bool:
    if relpath.endswith(_SEAM_IMPLEMENTATION):
        return False
    return any(scope in relpath for scope in _SCOPES)


def _receiver_is_filesystem(node: ast.expr) -> bool:
    """Heuristic: the receiver of ``.replace``/``.fsync`` names the seam
    (``fs``, ``self._fs``, ``REAL_FS``, ...)."""
    if isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.Name):
        name = node.id
    else:
        return False
    return name.lower() == "fs" or name.lower().endswith("_fs") or name.endswith("FS")


@register
class FsyncBeforeRenameRule(Rule):
    """DUR002: fs.replace finalization requires a prior flush+fsync."""

    rule_id = "DUR002"

    def applies_to(self, relpath: str) -> bool:
        return _in_write_path(relpath)

    def check_file(self, source: SourceFile, project: Project) -> List[Finding]:
        if source.tree is None:
            return []
        findings: List[Finding] = []
        for node in ast.walk(source.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                findings.extend(self._check_function(source, node))
        return findings

    def _check_function(self, source: SourceFile, func: ast.AST) -> List[Finding]:
        replace_calls: List[ast.Call] = []
        fsync_lines: List[int] = []
        for node in ast.walk(func):
            if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
                continue
            if node.func.attr == "replace" and _receiver_is_filesystem(node.func.value):
                # str.replace takes the same two positional arguments, so
                # the receiver heuristic is what keeps this precise.
                replace_calls.append(node)
            elif node.func.attr == "fsync":
                fsync_lines.append(node.lineno)
        return [
            Finding(
                path=source.relpath,
                line=call.lineno,
                rule_id=self.rule_id,
                message=(
                    "fs.replace() finalizes a file that was never fsynced "
                    "in this function; a power loss can publish the final "
                    "name with truncated content -- fsync the temp handle "
                    "before renaming"
                ),
            )
            for call in replace_calls
            if not any(line < call.lineno for line in fsync_lines)
        ]
