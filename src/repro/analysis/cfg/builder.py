"""Per-function control-flow graphs over the *normal* execution order.

One :func:`build_cfg` call turns a function's AST into a statement-level
CFG: every simple statement is one node, every compound statement
contributes a header node (the ``if``/``while`` test, the ``for`` iter,
the ``with`` items) plus the nodes of its blocks, and two synthetic
nodes bracket the function (``entry``/``exit``).  Edges follow normal
control flow plus the *explicit* abnormal flows: ``return``/``raise``
to exit, ``break``/``continue`` to their loop, exception edges from a
``try`` body into its handlers, and abrupt jumps routed through
enclosing ``finally`` blocks.

Deliberate approximations (documented so rule authors can rely on them):

* Implicit exceptions (any call may raise) are modeled only *inside*
  ``try`` statements, where every body node gets an edge to each
  handler.  Outside a ``try`` the graph is normal-flow.
* A ``finally`` body is built once; when abrupt jumps route through it,
  its exits connect to the union of continuations (normal successor
  plus the abrupt targets).  This over-approximates the path set, which
  makes lock sets strictly larger -- the safe direction for CONC003.
* ``while``/``for`` headers always carry a loop-exit edge, even for
  ``while True:`` -- same over-approximation, same polarity.

Each node also records the ``with`` items lexically enclosing it inside
this function (outermost first).  Python's ``with`` guarantees release
on *every* exit path, so "which locks does this ``with`` hold here" is
a lexical fact, not a dataflow one; the lockset analysis combines these
stamps with a dataflow over explicit ``.acquire()``/``.release()``
calls (see :mod:`~repro.analysis.cfg.lockset`).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Set, Tuple

#: Indices of the two synthetic nodes every CFG starts with.
ENTRY = 0
EXIT = 1


@dataclass
class CFGNode:
    """One CFG node: a simple statement or a compound-statement header."""

    index: int
    #: ``entry`` / ``exit`` / ``stmt`` / ``test`` (if, match) / ``loop``
    #: (while, for) / ``with`` / ``try`` / ``handler`` / ``finally``.
    kind: str
    #: The owning AST statement (the full compound statement for header
    #: nodes); ``None`` only for the synthetic entry/exit pair.
    stmt: Optional[ast.AST]
    line: int
    succs: Set[int] = field(default_factory=set)
    preds: Set[int] = field(default_factory=set)
    #: ``with`` items lexically enclosing this node, outermost first.
    #: A ``with`` header node carries only the items *enclosing* it --
    #: its own items take effect in its body.
    with_items: Tuple[ast.withitem, ...] = ()

    def header_exprs(self) -> List[ast.expr]:
        """The expressions evaluated *at* this node (a simple statement's
        whole expression tree; only the test/iter/items of a header --
        the blocks have their own nodes)."""
        stmt = self.stmt
        if stmt is None or self.kind in ("try", "handler", "finally"):
            return []
        if isinstance(stmt, ast.If) or isinstance(stmt, ast.While):
            return [stmt.test]
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return [stmt.iter]
        if isinstance(stmt, ast.Match):
            return [stmt.subject]
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return [item.context_expr for item in stmt.items]
        if isinstance(stmt, ast.stmt):
            return [
                child
                for child in ast.iter_child_nodes(stmt)
                if isinstance(child, ast.expr)
            ]
        return []


@dataclass
class CFG:
    """The control-flow graph of one function."""

    func: ast.AST
    nodes: List[CFGNode]

    @property
    def entry(self) -> CFGNode:
        return self.nodes[ENTRY]

    @property
    def exit(self) -> CFGNode:
        return self.nodes[EXIT]

    def real_nodes(self) -> Iterator[CFGNode]:
        """Every node except the synthetic entry/exit pair."""
        for node in self.nodes:
            if node.kind not in ("entry", "exit"):
                yield node


@dataclass
class _FinallyFrame:
    """One enclosing ``finally`` an abrupt jump must route through."""

    marker: int
    #: Abrupt continuations that entered this finally: re-dispatched
    #: from the finally body's exits once it is built.
    pending: List[Tuple[str, Optional[int]]] = field(default_factory=list)


@dataclass
class _LoopFrame:
    header: int
    breaks: Set[int] = field(default_factory=set)


class _Builder:
    def __init__(self, func: ast.AST) -> None:
        self.func = func
        line = getattr(func, "lineno", 1)
        self.nodes: List[CFGNode] = [
            CFGNode(index=ENTRY, kind="entry", stmt=None, line=line),
            CFGNode(index=EXIT, kind="exit", stmt=None, line=line),
        ]
        self._loops: List[_LoopFrame] = []
        self._finallies: List[_FinallyFrame] = []
        #: Handler-entry node ids of enclosing ``try`` statements.
        self._handlers: List[List[int]] = []
        self._withs: List[ast.withitem] = []

    # -- graph primitives -------------------------------------------------

    def new_node(self, kind: str, stmt: ast.AST) -> int:
        node = CFGNode(
            index=len(self.nodes),
            kind=kind,
            stmt=stmt,
            line=getattr(stmt, "lineno", 1),
            with_items=tuple(self._withs),
        )
        self.nodes.append(node)
        return node.index

    def edge(self, src: int, dst: int) -> None:
        self.nodes[src].succs.add(dst)
        self.nodes[dst].preds.add(src)

    def connect(self, preds: Set[int], dst: int) -> None:
        for src in preds:
            self.edge(src, dst)

    # -- abrupt-flow routing ----------------------------------------------

    def _abrupt(self, source: int, kind: str, target: Optional[int]) -> None:
        """Route ``return``/``raise``/``break``/``continue`` from
        ``source``, detouring through the innermost enclosing
        ``finally`` when there is one."""
        if self._finallies:
            frame = self._finallies[-1]
            self.edge(source, frame.marker)
            frame.pending.append((kind, target))
        else:
            self._dispatch(source, kind, target)

    def _dispatch(self, source: int, kind: str, target: Optional[int]) -> None:
        if kind == "exit":
            self.edge(source, EXIT)
        elif kind == "break":
            if self._loops:
                self._loops[-1].breaks.add(source)
            else:  # pragma: no cover - syntactically invalid input
                self.edge(source, EXIT)
        elif kind == "continue":
            if self._loops:
                self.edge(source, self._loops[-1].header)
            else:  # pragma: no cover - syntactically invalid input
                self.edge(source, EXIT)
        elif kind == "raise":
            if self._handlers:
                for handler in self._handlers[-1]:
                    self.edge(source, handler)
            # An exception can always escape past the handlers.
            self.edge(source, EXIT)
        elif target is not None:  # pragma: no cover - defensive
            self.edge(source, target)

    # -- statement dispatch ------------------------------------------------

    def build(self) -> CFG:
        body: List[ast.stmt] = self.func.body  # type: ignore[attr-defined]
        exits = self.block(body, {ENTRY})
        self.connect(exits, EXIT)
        return CFG(func=self.func, nodes=self.nodes)

    def block(self, statements: List[ast.stmt], preds: Set[int]) -> Set[int]:
        for statement in statements:
            preds = self.statement(statement, preds)
        return preds

    def statement(self, stmt: ast.stmt, preds: Set[int]) -> Set[int]:
        if isinstance(stmt, ast.If):
            return self._if(stmt, preds)
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            return self._loop(stmt, preds)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._with(stmt, preds)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, preds)
        if isinstance(stmt, ast.Match):
            return self._match(stmt, preds)
        node = self.new_node("stmt", stmt)
        self.connect(preds, node)
        if isinstance(stmt, ast.Return):
            self._abrupt(node, "exit", None)
            return set()
        if isinstance(stmt, ast.Raise):
            self._abrupt(node, "raise", None)
            return set()
        if isinstance(stmt, ast.Break):
            self._abrupt(node, "break", None)
            return set()
        if isinstance(stmt, ast.Continue):
            self._abrupt(node, "continue", None)
            return set()
        # Nested defs/classes are opaque single nodes: their bodies run
        # in another frame with their own conventions.
        return {node}

    def _if(self, stmt: ast.If, preds: Set[int]) -> Set[int]:
        test = self.new_node("test", stmt)
        self.connect(preds, test)
        exits = self.block(stmt.body, {test})
        if stmt.orelse:
            exits |= self.block(stmt.orelse, {test})
        else:
            exits |= {test}
        return exits

    def _loop(
        self, stmt: ast.While | ast.For | ast.AsyncFor, preds: Set[int]
    ) -> Set[int]:
        header = self.new_node("loop", stmt)
        self.connect(preds, header)
        frame = _LoopFrame(header=header)
        self._loops.append(frame)
        body_exits = self.block(stmt.body, {header})
        self.connect(body_exits, header)
        self._loops.pop()
        if stmt.orelse:
            exits = self.block(stmt.orelse, {header})
        else:
            exits = {header}
        return exits | frame.breaks

    def _with(self, stmt: ast.With | ast.AsyncWith, preds: Set[int]) -> Set[int]:
        header = self.new_node("with", stmt)
        self.connect(preds, header)
        self._withs.extend(stmt.items)
        exits = self.block(stmt.body, {header})
        del self._withs[len(self._withs) - len(stmt.items):]
        return exits

    def _try(self, stmt: ast.Try, preds: Set[int]) -> Set[int]:
        fin_frame: Optional[_FinallyFrame] = None
        if stmt.finalbody:
            marker = self.new_node("finally", stmt)
            fin_frame = _FinallyFrame(marker=marker)
            self._finallies.append(fin_frame)

        handler_entries = [
            self.new_node("handler", handler) for handler in stmt.handlers
        ]
        if handler_entries:
            self._handlers.append(handler_entries)
        first_body_index = len(self.nodes)
        body_exits = self.block(stmt.body, preds)
        # Any statement of the body may raise into any handler.
        for index in range(first_body_index, len(self.nodes)):
            if self.nodes[index].kind in ("handler",):
                continue
            for handler in handler_entries:
                self.edge(index, handler)
        if not body_exits and not handler_entries and fin_frame is None:
            return set()
        if stmt.orelse:
            body_exits = self.block(stmt.orelse, body_exits)
        if handler_entries:
            self._handlers.pop()
        exits = set(body_exits)
        for handler, entry in zip(stmt.handlers, handler_entries):
            exits |= self.block(handler.body, {entry})

        if fin_frame is None:
            return exits
        self._finallies.pop()
        self.connect(exits, fin_frame.marker)
        fin_exits = self.block(stmt.finalbody, {fin_frame.marker})
        for kind, target in fin_frame.pending:
            for node in fin_exits:
                self._abrupt(node, kind, target)
        return fin_exits

    def _match(self, stmt: ast.Match, preds: Set[int]) -> Set[int]:
        test = self.new_node("test", stmt)
        self.connect(preds, test)
        exits: Set[int] = {test}
        for case in stmt.cases:
            exits |= self.block(case.body, {test})
        return exits


def build_cfg(func: ast.AST) -> CFG:
    """The CFG of one ``FunctionDef`` / ``AsyncFunctionDef``."""
    return _Builder(func).build()
