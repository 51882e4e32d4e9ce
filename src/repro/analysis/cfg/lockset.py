"""Lockset dataflow: which locks are held at each CFG node, project-wide.

The analysis CONC003 reads runs in two layers:

1. **Per-function** (:func:`analyze_function`): build the CFG, stamp
   every node with the locks held there.  ``with self._lock:`` blocks
   contribute *lexically* (Python guarantees release on every exit
   path), explicit ``self._lock.acquire()`` / ``.release()`` calls
   contribute through a forward may-union dataflow (once a lock *may*
   be held, it stays in the set until a release kills it -- the
   conservative polarity for every rule built on top).  Each function
   yields a summary: blocking operations and resolved call sites, each
   with the locks held around it.

2. **Interprocedural fixpoint** (:class:`LocksetAnalysis`): blocking
   summaries propagate backwards over the existing
   :class:`~repro.analysis.dataflow.callgraph.CallGraph` edges until
   stable, keeping the *first* witness chain per fact so findings are
   deterministic.

Lock identity is ``(defining class, attribute)`` -- the same
abstraction CONC001 uses.  Locks that are not ``self.<attr>`` class
attributes (locals, globals) are out of scope; the codebase's
convention puts every shared lock on an instance.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.analysis.cfg.builder import CFG, build_cfg
from repro.analysis.dataflow.callgraph import CallGraph, _local_constructions
from repro.analysis.dataflow.symbols import (
    FunctionInfo,
    SymbolTable,
    dotted_path,
)

#: A call chain: ``((caller, line), (callee, line), ...)`` ending at the
#: function containing the interesting fact.
Chain = Tuple[Tuple[str, int], ...]


@dataclass(frozen=True, order=True)
class LockRef:
    """One lock: the class attribute that holds it."""

    owner: str  #: qualname of the defining class
    attr: str

    @property
    def label(self) -> str:
        """Globally unique id: ``repro.fabric.historydb.HistoryDB._lock``."""
        return f"{self.owner}.{self.attr}"

    @property
    def short(self) -> str:
        """Display name: ``HistoryDB._lock``."""
        return f"{self.owner.rsplit('.', 1)[-1]}.{self.attr}"


@dataclass(frozen=True)
class BlockingOp:
    """One potentially-blocking operation at a source line."""

    kind: str  #: ``sleep`` | ``io`` | ``future-wait`` | ``queue-get``
    line: int
    description: str


@dataclass
class FunctionLocks:
    """The per-function lockset summary."""

    info: FunctionInfo
    cfg: CFG
    #: node index -> locks that may be held when the node starts.
    held_before: Dict[int, FrozenSet[LockRef]]
    #: blocking ops paired with the locks held around them.
    blocking: List[Tuple[BlockingOp, FrozenSet[LockRef]]] = field(default_factory=list)
    #: resolved call sites: ``(callee qualname, line, locks held)``.
    calls: List[Tuple[str, int, FrozenSet[LockRef]]] = field(default_factory=list)


# -- lock / blocking-op recognition ---------------------------------------


def class_locks(table: SymbolTable, class_qualname: str) -> Dict[str, LockRef]:
    """Lock attrs visible on a class, own and inherited."""
    result: Dict[str, LockRef] = {}
    seen: Set[str] = set()
    stack = [class_qualname]
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        info = table.classes.get(current)
        if info is None:
            continue
        for attr in info.lock_attrs:
            if attr not in result:
                result[attr] = LockRef(owner=info.qualname, attr=attr)
        stack.extend(info.base_qualnames)
    return result


def _self_lock_attr(expr: ast.AST, locks: Dict[str, LockRef]) -> Optional[LockRef]:
    """``self.<attr>`` resolving to one of the class's locks, or None."""
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
    ):
        return locks.get(expr.attr)
    return None


def _with_item_lock(item: ast.withitem, locks: Dict[str, LockRef]) -> Optional[LockRef]:
    """The lock a ``with`` item acquires (``with self._lock:``,
    optionally through a call such as ``self._lock.acquire_timeout(..)``)."""
    expr: ast.AST = item.context_expr
    if isinstance(expr, ast.Call):
        func = expr.func
        if isinstance(func, ast.Attribute):
            expr = func.value
    return _self_lock_attr(expr, locks)


def _acquire_release(
    call: ast.Call, locks: Dict[str, LockRef]
) -> Optional[Tuple[str, LockRef]]:
    """Classify ``self.<lock>.acquire()`` / ``.release()`` calls."""
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in ("acquire", "release"):
        lock = _self_lock_attr(func.value, locks)
        if lock is not None:
            return func.attr, lock
    return None


#: Filesystem-seam methods that hit the disk.  ``read``/``write`` only
#: count on an fs-named receiver so plain file-handle writes (already
#: serialized by their owner) do not drown the signal.
_FS_BLOCKING_ATTRS = {"open", "fsync", "replace", "read", "write"}
_QUEUE_FACTORIES = {"Queue", "LifoQueue", "PriorityQueue", "SimpleQueue"}


def _receiver_is_filesystem(node: ast.AST) -> bool:
    # Mirrors the naming heuristic of rules/durability.py: the rules
    # layer may not be imported from the engine, so the three-line
    # convention is restated here.
    if isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.Name):
        name = node.id
    else:
        return False
    return name.lower() == "fs" or name.lower().endswith("_fs") or name.endswith("FS")


def _queue_locals(func_node: ast.AST, aliases: Dict[str, str]) -> Set[str]:
    """Locals assigned from a ``queue.*`` constructor."""
    names: Set[str] = set()
    for node in ast.walk(func_node):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Call)
        ):
            dotted = dotted_path(node.value.func, aliases)
            if (
                dotted is not None
                and dotted.startswith("queue.")
                and dotted.rsplit(".", 1)[-1] in _QUEUE_FACTORIES
            ):
                names.add(node.targets[0].id)
    return names


def _render(expr: ast.AST) -> str:
    # ast.unparse is total on anything the parser produced.
    return ast.unparse(expr)


def classify_blocking(
    call: ast.Call, aliases: Dict[str, str], queue_locals: Set[str]
) -> Optional[BlockingOp]:
    """Whether one call is a potentially-blocking operation."""
    func = call.func
    dotted = dotted_path(func, aliases)
    if dotted == "time.sleep":
        return BlockingOp("sleep", call.lineno, "time.sleep(...)")
    if isinstance(func, ast.Name) and func.id == "open" and func.id not in aliases:
        return BlockingOp("io", call.lineno, "builtin open(...)")
    if isinstance(func, ast.Attribute):
        if func.attr == "result" and not call.keywords and len(call.args) <= 1:
            return BlockingOp(
                "future-wait", call.lineno, f"{_render(func.value)}.result()"
            )
        if func.attr in _FS_BLOCKING_ATTRS and _receiver_is_filesystem(func.value):
            return BlockingOp(
                "io", call.lineno, f"{_render(func.value)}.{func.attr}(...)"
            )
        if (
            func.attr == "get"
            and isinstance(func.value, ast.Name)
            and func.value.id in queue_locals
        ):
            return BlockingOp("queue-get", call.lineno, f"{func.value.id}.get(...)")
    return None


def _calls_in(expr: ast.AST) -> Iterator[ast.Call]:
    """Calls inside one expression, in document (pre)order."""
    if isinstance(expr, ast.Call):
        yield expr
    for child in ast.iter_child_nodes(expr):
        if isinstance(child, (ast.Lambda,)):
            continue  # runs later, in another frame
        yield from _calls_in(child)


# -- per-function analysis -------------------------------------------------


def analyze_function(
    info: FunctionInfo, table: SymbolTable, graph: CallGraph
) -> FunctionLocks:
    """Build the CFG and lockset summary of one function."""
    cfg = build_cfg(info.node)
    module = table.modules[info.module]
    locks = (
        class_locks(table, info.class_qualname)
        if info.class_qualname is not None
        else {}
    )
    queue_names = _queue_locals(info.node, module.aliases)
    local_types = _local_constructions(info, table)

    size = len(cfg.nodes)
    lexical: List[Set[LockRef]] = [set() for _ in range(size)]
    gen: List[Set[LockRef]] = [set() for _ in range(size)]
    kill: List[Set[LockRef]] = [set() for _ in range(size)]
    node_calls: List[List[ast.Call]] = [[] for _ in range(size)]

    for node in cfg.real_nodes():
        index = node.index
        for item in node.with_items:
            lock = _with_item_lock(item, locks)
            if lock is not None:
                lexical[index].add(lock)
        for expr in node.header_exprs():
            for call in _calls_in(expr):
                node_calls[index].append(call)
                classified = _acquire_release(call, locks)
                if classified is None:
                    continue
                verb, lock = classified
                if verb == "acquire":
                    gen[index].add(lock)
                    kill[index].discard(lock)
                else:
                    kill[index].add(lock)
                    gen[index].discard(lock)

    # Forward may-union flow of explicit acquire/release.
    flow_in: List[Set[LockRef]] = [set() for _ in range(size)]
    flow_out: List[Set[LockRef]] = [set() for _ in range(size)]
    changed = True
    while changed:
        changed = False
        for node in cfg.nodes:
            index = node.index
            merged: Set[LockRef] = set()
            for pred in node.preds:
                merged |= flow_out[pred]
            out = (merged - kill[index]) | gen[index]
            if merged != flow_in[index] or out != flow_out[index]:
                flow_in[index] = merged
                flow_out[index] = out
                changed = True

    held_before = {
        node.index: frozenset(lexical[node.index] | flow_in[node.index])
        for node in cfg.nodes
    }
    result = FunctionLocks(info=info, cfg=cfg, held_before=held_before)

    for node in cfg.real_nodes():
        # A ``with`` header's calls are attributed with its own locks
        # already held; explicit acquire/release calls update the set in
        # evaluation order.
        prior: Set[LockRef] = set(held_before[node.index])
        if node.kind == "with":
            stmt = node.stmt
            assert isinstance(stmt, (ast.With, ast.AsyncWith))
            for item in stmt.items:
                lock = _with_item_lock(item, locks)
                if lock is not None:
                    prior.add(lock)
        for call in node_calls[node.index]:
            classified = _acquire_release(call, locks)
            if classified is not None:
                verb, lock = classified
                if verb == "acquire":
                    prior.add(lock)
                else:
                    prior.discard(lock)
                continue
            op = classify_blocking(call, module.aliases, queue_names)
            if op is not None:
                result.blocking.append((op, frozenset(prior)))
            callee = graph.resolve_call(info, call, local_types)
            if callee is not None:
                result.calls.append((callee, call.lineno, frozenset(prior)))

    return result


# -- whole-project analysis ------------------------------------------------


class LocksetAnalysis:
    """Locksets for every function plus the interprocedural blocking
    closure CONC003 reads."""

    def __init__(self) -> None:
        self.functions: Dict[str, FunctionLocks] = {}
        #: qualname -> blocking kind -> (first chain, op description).
        self.transitive_blocking: Dict[str, Dict[str, Tuple[Chain, str]]] = {}

    @staticmethod
    def build(table: SymbolTable, graph: CallGraph) -> "LocksetAnalysis":
        analysis = LocksetAnalysis()
        for qualname in sorted(table.functions):
            analysis.functions[qualname] = analyze_function(
                table.functions[qualname], table, graph
            )
        analysis._close_blocking()
        return analysis

    def _close_blocking(self) -> None:
        blocking: Dict[str, Dict[str, Tuple[Chain, str]]] = {}
        for qualname in sorted(self.functions):
            summary = self.functions[qualname]
            blocking[qualname] = {}
            for op, _held in sorted(
                summary.blocking, key=lambda t: (t[0].line, t[0].kind)
            ):
                blocking[qualname].setdefault(
                    op.kind, (((qualname, op.line),), op.description)
                )
        changed = True
        while changed:
            changed = False
            for qualname in sorted(self.functions):
                summary = self.functions[qualname]
                for callee, line, _held in sorted(
                    summary.calls, key=lambda t: (t[1], t[0])
                ):
                    for kind, (chain, description) in sorted(
                        blocking.get(callee, {}).items()
                    ):
                        if kind not in blocking[qualname]:
                            blocking[qualname][kind] = (
                                ((qualname, line),) + chain,
                                description,
                            )
                            changed = True
        self.transitive_blocking = blocking
