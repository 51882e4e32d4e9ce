"""What "nondeterministic" means, shared by CHAIN001 and the taint engine.

Both the per-file rule (:mod:`repro.analysis.rules.determinism`) and the
interprocedural one (:mod:`repro.analysis.rules.dataflow_determinism`,
via :mod:`repro.analysis.dataflow.taint`) must agree exactly on which
APIs diverge between two executions of the same chaincode -- the two
rules answer different questions about one source set.  This module is
the single definition, dependency-free so the rule layer and the dataflow layer can
both import it without cycles.
"""

from __future__ import annotations

import ast
from typing import List, Set

#: Modules any use of which is nondeterministic inside chaincode.
BANNED_MODULES = {"time", "random", "secrets"}

#: module -> attribute names that are banned (other attributes are fine).
BANNED_ATTRS = {
    "uuid": {"uuid1", "uuid4", "getnode"},
    "os": {"environ", "getenv", "urandom", "getpid", "cpu_count", "getloadavg"},
}

#: Methods that read a wall clock on datetime/date objects.
DATETIME_CLOCK_ATTRS = {"now", "utcnow", "today"}

#: Builtins that do peer-local I/O.
BANNED_BUILTINS = {"input", "open"}

#: Stub methods that stage a write into the transaction's write set.
WRITE_METHODS = {"put_state", "del_state"}


def is_set_expression(node: ast.expr, set_names: Set[str]) -> bool:
    """Whether ``node`` evaluates to an unordered set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in {"set", "frozenset"}:
            return True
        # seen.union(...), seen.intersection(...), seen.difference(...)
        if isinstance(node.func, ast.Attribute) and node.func.attr in {
            "union",
            "intersection",
            "difference",
            "symmetric_difference",
        }:
            return is_set_expression(node.func.value, set_names)
    if isinstance(node, ast.Name):
        return node.id in set_names
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub)):
        return is_set_expression(node.left, set_names) or is_set_expression(
            node.right, set_names
        )
    return False


def set_typed_names(func: ast.AST) -> Set[str]:
    """Names assigned or annotated as sets anywhere in ``func``."""
    names: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and is_set_expression(node.value, names):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            annotation = node.annotation
            base = annotation.value if isinstance(annotation, ast.Subscript) else annotation
            if isinstance(base, ast.Name) and base.id in {"set", "frozenset", "Set", "FrozenSet"}:
                names.add(node.target.id)
    return names


def source_kind(dotted: str) -> str | None:
    """Human label if a dotted path names a nondeterministic API."""
    root, _, rest = dotted.partition(".")
    if root in BANNED_MODULES:
        return dotted
    if root in BANNED_ATTRS and rest.split(".")[0] in BANNED_ATTRS[root]:
        return dotted
    if root == "datetime" and dotted.split(".")[-1] in DATETIME_CLOCK_ATTRS:
        return dotted
    return None


__all__: List[str] = [
    "BANNED_MODULES",
    "BANNED_ATTRS",
    "DATETIME_CLOCK_ATTRS",
    "BANNED_BUILTINS",
    "WRITE_METHODS",
    "is_set_expression",
    "set_typed_names",
    "source_kind",
]
