"""CHAIN001: chaincode must be deterministic.

Fabric's execute-order-validate pipeline endorses a transaction by
running the chaincode on one peer and validating the recorded write set
everywhere else.  Anything that can differ between two executions --
wall clocks, randomness, the process environment, uuid1/uuid4, local
file I/O, or Python's per-process ``str`` hash randomization leaking
through ``set`` iteration order -- silently produces endorsements that
other peers would not reproduce, which surfaces much later as validation
failures (and would corrupt the history-db that the temporal indexes
are built from).

The rule activates inside any class that (transitively, within the same
file) inherits from a base named ``Chaincode`` and flags:

* any use of the ``time``, ``random`` or ``secrets`` modules;
* ``uuid.uuid1`` / ``uuid.uuid4`` / ``uuid.getnode`` (uuid3/uuid5 are
  content hashes and stay legal);
* ``datetime.now`` / ``utcnow`` / ``today`` on anything imported from
  ``datetime``;
* ``os.environ`` / ``os.getenv`` / ``os.urandom`` / ``os.getpid`` /
  ``os.cpu_count``;
* the ``input`` and ``open`` builtins (peer-local I/O);
* ``for`` loops iterating an unordered ``set`` whose body stages writes
  via ``put_state`` / ``del_state`` (wrap the iterable in
  ``sorted(...)`` to fix).  Plain ``dict`` iteration is
  insertion-ordered in Python and is deliberately not flagged.

Chaincode should derive every varying value from its arguments or from
``stub.get_tx_timestamp()``, which is part of the ordered transaction.

DET002 draws on the same source set but follows values to a ledger
write; CHAIN001 additionally flags uses that never reach a write, e.g.
``if random.random() < 0.5: stub.put_state(k, 1)`` -- a nondeterministic
branch around a constant.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set

from repro.analysis.dataflow.symbols import dotted_path, import_aliases
from repro.analysis.findings import Finding
from repro.analysis.nondeterminism import (
    BANNED_BUILTINS as _BANNED_BUILTINS,
    WRITE_METHODS as _WRITE_METHODS,
    is_set_expression as _is_set_expression,
    set_typed_names as _set_typed_names,
    source_kind,
)
from repro.analysis.project import Project, SourceFile
from repro.analysis.registry import Rule, register


def _chaincode_classes(tree: ast.AST) -> List[ast.ClassDef]:
    """Classes inheriting (within this file) from a base named Chaincode."""
    classes = [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    chaincode_names: Set[str] = set()

    def base_name(base: ast.expr) -> Optional[str]:
        if isinstance(base, ast.Name):
            return base.id
        if isinstance(base, ast.Attribute):
            return base.attr
        return None

    # Fixed point over same-file inheritance chains.
    changed = True
    while changed:
        changed = False
        for node in classes:
            if node.name in chaincode_names:
                continue
            for base in node.bases:
                name = base_name(base)
                if name == "Chaincode" or name in chaincode_names:
                    chaincode_names.add(node.name)
                    changed = True
                    break
    return [node for node in classes if node.name in chaincode_names]


def _stages_writes(body: List[ast.stmt]) -> Optional[ast.Call]:
    """First ``put_state``-style call anywhere under ``body``, if any."""
    for statement in body:
        for node in ast.walk(statement):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _WRITE_METHODS
            ):
                return node
    return None


def _walk_class_scope(node: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` that does not descend into nested classes."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if not isinstance(child, ast.ClassDef):
            stack.extend(ast.iter_child_nodes(child))


@register
class ChaincodeDeterminismRule(Rule):
    """CHAIN001: no nondeterminism inside ``Chaincode`` subclasses."""

    rule_id = "CHAIN001"

    def check_file(self, source: SourceFile, project: Project) -> List[Finding]:
        if source.tree is None or "Chaincode" not in source.text:
            return []
        aliases = import_aliases(source.tree)
        findings: List[Finding] = []
        for class_def in _chaincode_classes(source.tree):
            findings.extend(self._check_class(source, class_def, aliases))
        return findings

    def _check_class(
        self, source: SourceFile, class_def: ast.ClassDef, aliases: Dict[str, str]
    ) -> List[Finding]:
        findings: List[Finding] = []

        def flag(node: ast.AST, what: str) -> None:
            findings.append(
                Finding(
                    path=source.relpath,
                    line=getattr(node, "lineno", class_def.lineno),
                    rule_id=self.rule_id,
                    message=(
                        f"nondeterministic {what} in chaincode "
                        f"{class_def.name!r}: endorsements would diverge "
                        "across peers; derive it from the transaction's "
                        "arguments or stub.get_tx_timestamp() instead"
                    ),
                )
            )

        for node in _walk_class_scope(class_def):
            dotted = self._resolve(node, aliases)
            if dotted is not None and source_kind(dotted) is not None:
                flag(node, f"use of {dotted!r}")
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in _BANNED_BUILTINS
                and node.func.id not in aliases
            ):
                flag(node, f"builtin {node.func.id}() call (peer-local I/O)")
            if isinstance(node, (ast.For, ast.AsyncFor)):
                set_names = _set_typed_names(node) | self._enclosing_set_names(class_def, node)
                if _is_set_expression(node.iter, set_names):
                    write_call = _stages_writes(node.body)
                    if write_call is not None:
                        flag(
                            node,
                            "iteration order: looping over an unordered set "
                            f"and calling {write_call.func.attr}() inside the "  # type: ignore[union-attr]
                            "loop; wrap the iterable in sorted(...)",
                        )
        return findings

    @staticmethod
    def _resolve(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
        """Dotted path for attribute chains and bare imported names."""
        if isinstance(node, ast.Attribute):
            return dotted_path(node, aliases)
        if isinstance(node, ast.Name) and not isinstance(getattr(node, "ctx", None), ast.Store):
            dotted = aliases.get(node.id)
            # Only bare *from*-imports resolve through a Name (e.g.
            # ``from time import time``); a plain ``import time`` only
            # becomes interesting through an Attribute access.
            if dotted is not None and "." in dotted:
                return dotted
        return None

    @staticmethod
    def _enclosing_set_names(class_def: ast.ClassDef, loop: ast.AST) -> Set[str]:
        """Set-typed names of the function containing ``loop``."""
        for node in ast.walk(class_def):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(descendant is loop for descendant in ast.walk(node)):
                    return _set_typed_names(node)
        return set()
