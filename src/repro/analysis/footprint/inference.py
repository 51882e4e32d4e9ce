"""Interprocedural key-footprint inference over the dataflow engine.

Mirrors the taint engine's two layers (per-function abstract
interpretation, then a fixpoint over the call graph), but the abstract
values are *key terms* (:mod:`~repro.analysis.footprint.namespaces`)
instead of taint labels, and the summaries are **ordered**: each
function's summary is the sequence of state-key operations its body can
perform, with callee operations spliced in at the call site.  Ordering
is what lets KEY002 see a read scheduled after a write of the same
namespace inside one invocation.

Entry points are chaincode dispatch arms: ``invoke`` bodies are split on
``if fn == "record_event":`` tests (including ``elif`` chains and
``fn in (...)`` membership tests), so every chaincode function gets its
own footprint even though Fabric funnels them through one method.  Code
outside any recognized arm is treated as a shared prelude and analyzed
before every arm.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.dataflow.callgraph import CallGraph
from repro.analysis.dataflow.symbols import (
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    SymbolTable,
    dotted_path,
)
from repro.analysis.footprint.namespaces import (
    ArgInput,
    Concat,
    KeyPattern,
    LedgerValue,
    Lit,
    Param,
    Term,
    Unknown,
    concat,
    join_terms,
    normalize,
    substitute,
)
from repro.analysis.nondeterminism import source_kind
from repro.analysis.project import Project

#: Stub-API key operations: method name -> (op kind, key argument index).
#: Matching is by attribute name (like the taint engine's sinks) so the
#: pass works on fixture trees that do not contain the real stub class.
READ_OP = "read"
WRITE_OP = "write"
DELETE_OP = "delete"
SCAN_OP = "scan"
HIDDEN_OP = "hidden-read"

_KEY_APIS: Dict[str, Tuple[str, int]] = {
    "get_state": (READ_OP, 0),
    "put_state": (WRITE_OP, 0),
    "del_state": (DELETE_OP, 0),
    "get_state_by_range": (SCAN_OP, 0),
    "get_state_by_range_with_pagination": (SCAN_OP, 0),
    "get_history_for_key": (HIDDEN_OP, 0),
}

#: Composite-key framing used by the stub: ``\x00<type>\x00attr\x00...``.
_COMPOSITE_FRAME = "\x00"

#: Writing op kinds (used by the rules and the exporter).
WRITE_KINDS = (WRITE_OP, DELETE_OP)
#: Reading op kinds.
READ_KINDS = (READ_OP, SCAN_OP, HIDDEN_OP)

_MAX_RETURN_TERMS = 6
_MAX_ENV_TERMS = 8


@dataclass(frozen=True)
class KeyOp:
    """One state-key operation a function (transitively) performs."""

    kind: str
    line: int
    term: Term
    via: Tuple[str, ...] = ()


@dataclass
class FunctionKeySummary:
    """Ordered key behaviour of one function, callees folded in."""

    qualname: str
    ops: List[KeyOp] = field(default_factory=list)
    returns: Tuple[Term, ...] = ()

    def snapshot(self) -> Tuple[int, int]:
        return (len(self.ops), len(self.returns))


@dataclass
class NormalizedOp:
    """An entry-point operation with its namespace normalized."""

    kind: str
    line: int
    pattern: KeyPattern
    via: Tuple[str, ...] = ()


@dataclass
class EntryFootprint:
    """The inferred footprint of one chaincode function."""

    class_qualname: str
    class_name: str
    #: The runtime chaincode name (the class's ``name`` attribute).
    chaincode: str
    fn: str
    path: str
    line: int
    ops: List[NormalizedOp] = field(default_factory=list)

    def patterns(self, kinds: Sequence[str]) -> List[KeyPattern]:
        """Distinct key patterns of the ops whose kind is in ``kinds``."""
        unique = {op.pattern for op in self.ops if op.kind in kinds}
        return sorted(unique, key=KeyPattern.sort_key)

    def writes(self) -> List[KeyPattern]:
        """Namespaces this entry point can write or delete."""
        return self.patterns(WRITE_KINDS)

    def reads(self) -> List[KeyPattern]:
        """Namespaces whose reads enter the endorsement-time RWSet."""
        return self.patterns(READ_KINDS)

    def hidden_reads(self) -> List[KeyPattern]:
        """GetHistoryForKey surfaces the RWSet never mentions."""
        return self.patterns((HIDDEN_OP,))


class FootprintAnalysis:
    """Fixpoint key summaries plus per-chaincode entry footprints."""

    def __init__(self, table: SymbolTable, graph: CallGraph) -> None:
        self.table = table
        self.graph = graph
        self.summaries: Dict[str, FunctionKeySummary] = {}
        self.entries: List[EntryFootprint] = []

    @staticmethod
    def build(table: SymbolTable, graph: CallGraph) -> "FootprintAnalysis":
        analysis = FootprintAnalysis(table, graph)
        for qualname in table.functions:
            analysis.summaries[qualname] = FunctionKeySummary(qualname)
        # Via chains never repeat a function name and term width is
        # capped, so the summary universe is finite; the bound is a
        # backstop against pathological growth.
        for _ in range(max(4, len(table.functions))):
            changed = False
            for info in table.functions.values():
                before = analysis.summaries[info.qualname].snapshot()
                analysis.summaries[info.qualname] = _KeyAnalyzer(
                    analysis, info
                ).run()
                if analysis.summaries[info.qualname].snapshot() != before:
                    changed = True
            if not changed:
                break
        analysis._build_entries()
        return analysis

    def summary(self, qualname: str) -> FunctionKeySummary:
        """The fixpoint summary of ``qualname`` (empty if unanalyzed)."""
        return self.summaries.get(qualname, FunctionKeySummary(qualname))

    # -- entry-point extraction -------------------------------------------

    def _build_entries(self) -> None:
        for klass in self.table.chaincode_classes():
            invoke = self.table.method_on(klass.qualname, "invoke")
            if invoke is None:
                continue
            chaincode = _class_constants(self.table, klass).get(
                "name", klass.name
            )
            params = invoke.param_names
            fn_param = params[1] if len(params) > 1 else "fn"
            args_param = params[2] if len(params) > 2 else "args"
            arms = _dispatch_arms(invoke, fn_param)
            if not arms:
                arms = [(invoke.name, invoke.node.lineno, None)]  # type: ignore[attr-defined]
            for fn_name, line, body in arms:
                analyzer = _KeyAnalyzer(
                    self,
                    invoke,
                    entry_env={
                        args_param: (ArgInput(),),
                        fn_param: (Lit(fn_name),),
                    },
                )
                summary = analyzer.run_body(
                    body
                    if body is not None
                    else list(invoke.node.body)  # type: ignore[attr-defined]
                )
                self.entries.append(
                    EntryFootprint(
                        class_qualname=klass.qualname,
                        class_name=klass.name,
                        chaincode=chaincode,
                        fn=fn_name,
                        path=invoke.source.relpath,
                        line=line,
                        ops=[
                            NormalizedOp(
                                kind=op.kind,
                                line=op.line,
                                pattern=normalize(op.term),
                                via=op.via,
                            )
                            for op in summary.ops
                        ],
                    )
                )
        self.entries.sort(key=lambda entry: (entry.class_qualname, entry.fn))


def _dispatch_arms(
    invoke: FunctionInfo, fn_param: str
) -> List[Tuple[str, int, List[ast.stmt]]]:
    """``(fn name, line, arm body)`` for each recognized dispatch arm.

    The shared prelude (statements before the first arm) is prepended to
    every arm body so bindings like a decoded argument list stay
    visible.
    """
    arms: List[Tuple[str, int, List[ast.stmt]]] = []
    prelude: List[ast.stmt] = []
    body: Sequence[ast.stmt] = invoke.node.body  # type: ignore[attr-defined]
    for statement in body:
        matched = _match_arm_chain(statement, fn_param)
        if matched is None:
            if not arms:
                prelude.append(statement)
            continue
        for names, line, arm_body in matched:
            for name in names:
                arms.append((name, line, [*prelude, *arm_body]))
    return arms


def _match_arm_chain(
    statement: ast.stmt, fn_param: str
) -> Optional[List[Tuple[List[str], int, List[ast.stmt]]]]:
    """Decompose ``if fn == ...: ... elif fn == ...: ...`` chains."""
    if not isinstance(statement, ast.If):
        return None
    chain: List[Tuple[List[str], int, List[ast.stmt]]] = []
    current: Optional[ast.stmt] = statement
    while isinstance(current, ast.If):
        names = _arm_names(current.test, fn_param)
        if names is None:
            return chain or None
        chain.append((names, current.lineno, list(current.body)))
        orelse = current.orelse
        if len(orelse) == 1 and isinstance(orelse[0], ast.If):
            current = orelse[0]
        else:
            break
    return chain or None


def _arm_names(test: ast.expr, fn_param: str) -> Optional[List[str]]:
    """The function names an ``if`` test dispatches on, if recognizable."""
    if not (
        isinstance(test, ast.Compare)
        and isinstance(test.left, ast.Name)
        and test.left.id == fn_param
        and len(test.ops) == 1
    ):
        return None
    comparator = test.comparators[0]
    if isinstance(test.ops[0], ast.Eq):
        if isinstance(comparator, ast.Constant) and isinstance(
            comparator.value, str
        ):
            return [comparator.value]
        return None
    if isinstance(test.ops[0], ast.In) and isinstance(
        comparator, (ast.Tuple, ast.List, ast.Set)
    ):
        names = [
            element.value
            for element in comparator.elts
            if isinstance(element, ast.Constant)
            and isinstance(element.value, str)
        ]
        return names or None
    return None


def _class_constants(table: SymbolTable, klass: ClassInfo) -> Dict[str, str]:
    """String constants assigned in the class body (bases included)."""
    constants: Dict[str, str] = {}
    seen: Set[str] = set()
    stack = [klass.qualname]
    order: List[ClassInfo] = []
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        info = table.classes.get(current)
        if info is None:
            continue
        order.append(info)
        stack.extend(info.base_qualnames)
    # Walk bases first so subclasses override.
    for info in reversed(order):
        for statement in info.node.body:
            target: Optional[ast.expr] = None
            value: Optional[ast.expr] = None
            if isinstance(statement, ast.Assign) and len(statement.targets) == 1:
                target, value = statement.targets[0], statement.value
            elif isinstance(statement, ast.AnnAssign):
                target, value = statement.target, statement.value
            if (
                isinstance(target, ast.Name)
                and isinstance(value, ast.Constant)
                and isinstance(value.value, str)
            ):
                constants[target.id] = value.value
    return constants


def _module_constants(module: ModuleInfo) -> Dict[str, str]:
    """Top-level string constants (``SEPARATOR = "\\x00"``)."""
    cached = getattr(module, "_footprint_constants", None)
    if cached is not None:
        return cached
    constants: Dict[str, str] = {}
    tree = module.source.tree
    if tree is not None:
        for statement in tree.body:
            target: Optional[ast.expr] = None
            value: Optional[ast.expr] = None
            if isinstance(statement, ast.Assign) and len(statement.targets) == 1:
                target, value = statement.targets[0], statement.value
            elif isinstance(statement, ast.AnnAssign):
                target, value = statement.target, statement.value
            if (
                isinstance(target, ast.Name)
                and isinstance(value, ast.Constant)
                and isinstance(value.value, str)
            ):
                constants[target.id] = value.value
    module._footprint_constants = constants  # type: ignore[attr-defined]
    return constants


def _via(prefix: str, via: Tuple[str, ...]) -> Optional[Tuple[str, ...]]:
    """Extend a via chain without repeats (``None`` = drop: recursion)."""
    if prefix in via:
        return None
    return (prefix,) + via


class _KeyAnalyzer:
    """One abstract-interpretation pass collecting ordered key ops."""

    def __init__(
        self,
        analysis: FootprintAnalysis,
        info: FunctionInfo,
        entry_env: Optional[Dict[str, Tuple[Term, ...]]] = None,
    ) -> None:
        self.analysis = analysis
        self.info = info
        self.module: ModuleInfo = analysis.table.modules[info.module]
        self.summary = FunctionKeySummary(info.qualname)
        self.env: Dict[str, Tuple[Term, ...]] = dict(entry_env or {})
        self.entry_mode = entry_env is not None
        self.params: Dict[str, int] = (
            {}
            if self.entry_mode
            else {name: index for index, name in enumerate(info.param_names)}
        )
        self.class_constants: Dict[str, str] = {}
        if info.class_qualname is not None:
            klass = analysis.table.classes.get(info.class_qualname)
            if klass is not None:
                self.class_constants = _class_constants(analysis.table, klass)
        self._seen_ops: Set[KeyOp] = set()
        from repro.analysis.dataflow.taint import _local_types

        self.local_types = _local_types(analysis, info)  # type: ignore[arg-type]

    def run(self) -> FunctionKeySummary:
        return self.run_body(list(self.info.node.body))  # type: ignore[attr-defined]

    def run_body(self, body: List[ast.stmt]) -> FunctionKeySummary:
        # Two extra passes let bindings introduced late in a loop body
        # reach uses earlier in it; the env only grows.
        for iteration in range(3):
            if iteration:
                # Ops were already recorded (in order) on the first pass;
                # later passes only refine the env, so re-recording would
                # duplicate and mis-order them.
                before = {name: len(terms) for name, terms in self.env.items()}
                probe = _KeyAnalyzer(self.analysis, self.info)
                probe.env = dict(self.env)
                probe.params = self.params
                probe.entry_mode = self.entry_mode
                probe.class_constants = self.class_constants
                for statement in body:
                    probe._stmt(statement)
                if {
                    name: len(terms) for name, terms in probe.env.items()
                } == before:
                    break
                self.env = probe.env
                self.summary = FunctionKeySummary(self.info.qualname)
                self._seen_ops = set()
            for statement in body:
                self._stmt(statement)
        return self.summary

    # -- statements --------------------------------------------------------

    def _stmt(self, node: ast.stmt) -> None:
        if isinstance(node, ast.Assign):
            terms = self._eval(node.value)
            for target in node.targets:
                self._bind(target, terms)
            self._bind_fields(node.targets, node.value)
        elif isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self._bind(node.target, self._eval(node.value))
                self._bind_fields([node.target], node.value)
        elif isinstance(node, ast.AugAssign):
            terms = _cross_concat(
                self._eval(node.target), self._eval(node.value)
            )
            self._bind(node.target, terms)
        elif isinstance(node, ast.Return):
            if node.value is not None:
                self._record_return(self._eval(node.value))
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            self._bind(node.target, self._eval(node.iter))
            for child in (*node.body, *node.orelse):
                self._stmt(child)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                terms = self._eval(item.context_expr)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, terms)
            for child in node.body:
                self._stmt(child)
        elif isinstance(node, (ast.If, ast.While)):
            self._eval(node.test)
            for child in (*node.body, *node.orelse):
                self._stmt(child)
        elif isinstance(node, ast.Try):
            for child in (*node.body, *node.orelse, *node.finalbody):
                self._stmt(child)
            for handler in node.handlers:
                for child in handler.body:
                    self._stmt(child)
        elif isinstance(node, (ast.Expr, ast.Assert, ast.Raise, ast.Delete)):
            for value in ast.iter_child_nodes(node):
                if isinstance(value, ast.expr):
                    self._eval(value)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested scopes are summarized on their own
        else:
            for value in ast.iter_child_nodes(node):
                if isinstance(value, ast.expr):
                    self._eval(value)
                elif isinstance(value, ast.stmt):
                    self._stmt(value)

    def _bind(self, target: ast.expr, terms: Tuple[Term, ...]) -> None:
        if isinstance(target, ast.Name):
            if terms:
                merged = tuple(
                    dict.fromkeys((*self.env.get(target.id, ()), *terms))
                )
                if len(merged) > _MAX_ENV_TERMS:
                    merged = (join_terms(merged),)
                self.env[target.id] = merged
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind(element, terms)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, terms)
        # attribute / subscript targets stay untracked (like the taint pass)

    def _bind_fields(
        self, targets: Sequence[ast.expr], value: ast.expr
    ) -> None:
        """Limited field sensitivity: ``event = Event(key=expr)`` binds
        ``event.key`` so a later ``stub.put_state(event.key, ...)``
        resolves to ``expr``'s namespace instead of the whole object."""
        if not isinstance(value, ast.Call):
            return
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            for keyword in value.keywords:
                if keyword.arg is None:
                    continue
                terms = self._eval(keyword.value)
                if terms:
                    self.env[f"{target.id}.{keyword.arg}"] = terms

    def _record_return(self, terms: Tuple[Term, ...]) -> None:
        merged = tuple(dict.fromkeys((*self.summary.returns, *terms)))
        if len(merged) > _MAX_RETURN_TERMS:
            merged = (join_terms(merged),)
        self.summary.returns = merged

    def _record_op(self, op: KeyOp) -> None:
        if op not in self._seen_ops:
            self._seen_ops.add(op)
            self.summary.ops.append(op)

    # -- expressions -------------------------------------------------------

    def _eval(self, node: ast.expr) -> Tuple[Term, ...]:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, str):
                return (Lit(node.value),)
            return ()
        if isinstance(node, ast.Name):
            return self._eval_name(node)
        if isinstance(node, ast.Attribute):
            return self._eval_attribute(node)
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.JoinedStr):
            return self._eval_fstring(node)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            return _cross_concat(self._eval(node.left), self._eval(node.right))
        if isinstance(node, ast.Lambda):
            return ()
        if isinstance(node, ast.Subscript):
            # Only the container's namespace flows through an index; the
            # slice (often a dict-literal key) must not, or ``d["name"]``
            # would pretend to be the state key ``"name"``.
            self._eval(node.slice)
            return self._eval(node.value)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            return self._eval_comprehension(node)
        # containers, comparisons, conditionals, subscripts, starred:
        # the union of the parts.
        terms: Tuple[Term, ...] = ()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                terms = _merge(terms, self._eval(child))
        return terms

    def _eval_name(self, node: ast.Name) -> Tuple[Term, ...]:
        if isinstance(getattr(node, "ctx", None), ast.Store):
            return ()
        terms: Tuple[Term, ...] = self.env.get(node.id, ())
        if node.id in self.params:
            terms = _merge(terms, (Param(self.params[node.id]),))
        if not terms:
            constant = _module_constants(self.module).get(node.id)
            if constant is not None:
                return (Lit(constant),)
            constant = self.class_constants.get(node.id)
            if constant is not None:
                return (Lit(constant),)
            dotted = self.module.aliases.get(node.id)
            if dotted is not None and source_kind(dotted) is not None:
                return (Unknown(),)
        return terms

    def _eval_attribute(self, node: ast.Attribute) -> Tuple[Term, ...]:
        dotted = self.module.aliases and dotted_path(node, self.module.aliases)
        if dotted and source_kind(dotted) is not None:
            return (Unknown(),)
        if isinstance(node.value, ast.Name):
            field_terms = self.env.get(f"{node.value.id}.{node.attr}")
            if field_terms:
                return field_terms
            if node.value.id in ("self", "cls"):
                constant = self.class_constants.get(node.attr)
                if constant is not None:
                    return (Lit(constant),)
        return self._eval(node.value)

    def _eval_fstring(self, node: ast.JoinedStr) -> Tuple[Term, ...]:
        combos: List[Tuple[Term, ...]] = [()]
        for part in node.values:
            if isinstance(part, ast.Constant):
                options: Tuple[Term, ...] = (
                    (Lit(str(part.value)),) if part.value != "" else (Lit(""),)
                )
            elif isinstance(part, ast.FormattedValue):
                evaluated = self._eval(part.value)
                options = evaluated if evaluated else (ArgInput(),)
                if len(options) > 1:
                    options = (join_terms(options),)
            else:
                options = (Unknown(),)
            combos = [(*combo, option) for combo in combos for option in options]
        return tuple(concat(*combo) for combo in combos)

    def _eval_comprehension(self, node: ast.expr) -> Tuple[Term, ...]:
        terms: Tuple[Term, ...] = ()
        for generator in node.generators:  # type: ignore[attr-defined]
            iter_terms = self._eval(generator.iter)
            self._bind(generator.target, iter_terms)
            terms = _merge(terms, iter_terms)
            for condition in generator.ifs:
                self._eval(condition)
        if isinstance(node, ast.DictComp):
            terms = _merge(terms, self._eval(node.key))
            terms = _merge(terms, self._eval(node.value))
        else:
            terms = _merge(terms, self._eval(node.elt))  # type: ignore[attr-defined]
        return terms

    def _eval_call(self, node: ast.Call) -> Tuple[Term, ...]:
        func = node.func

        # Stub-API key operations, matched by attribute name exactly like
        # the taint engine's ``put_state`` sinks.
        if isinstance(func, ast.Attribute) and func.attr in _KEY_APIS:
            kind, key_index = _KEY_APIS[func.attr]
            key_terms: Tuple[Term, ...] = ()
            for index, arg in enumerate(node.args):
                terms = self._eval(arg)
                if index == key_index:
                    key_terms = terms
            for keyword in node.keywords:
                terms = self._eval(keyword.value)
                if keyword.arg == "key" and not key_terms:
                    key_terms = terms
            for term in key_terms or (Unknown(),):
                self._record_op(KeyOp(kind=kind, line=node.lineno, term=term))
            if kind in (READ_OP, SCAN_OP, HIDDEN_OP):
                return (LedgerValue(),)
            return ()
        if isinstance(func, ast.Attribute) and func.attr == "get_tx_timestamp":
            return (ArgInput(),)
        if isinstance(func, ast.Attribute) and func.attr == "create_composite_key":
            # ``\x00<type>\x00attr\x00...`` -- modeled explicitly so the
            # returned namespace keeps the frame instead of degrading to
            # the bare object type (which would be *false* precision).
            type_terms = self._eval(node.args[0]) if node.args else ()
            attr_terms: Tuple[Term, ...] = ()
            for arg in node.args[1:]:
                attr_terms = _merge(attr_terms, self._eval(arg))
            type_term = (
                join_terms(type_terms) if type_terms else ArgInput()
            )
            tail = join_terms(attr_terms) if attr_terms else ArgInput()
            return (
                concat(
                    Lit(_COMPOSITE_FRAME),
                    type_term,
                    Lit(_COMPOSITE_FRAME),
                    tail,
                ),
            )
        if isinstance(func, ast.Attribute) and func.attr in (
            "get_state_by_partial_composite_key",
        ):
            type_terms = self._eval(node.args[0]) if node.args else ()
            for arg in node.args[1:]:
                self._eval(arg)
            prefix = concat(
                Lit(_COMPOSITE_FRAME),
                join_terms(type_terms) if type_terms else ArgInput(),
                Lit(_COMPOSITE_FRAME),
            )
            self._record_op(
                KeyOp(kind=SCAN_OP, line=node.lineno, term=prefix)
            )
            return (LedgerValue(),)

        arg_terms = self._call_arg_terms(node)
        all_args: Tuple[Term, ...] = ()
        for terms in arg_terms.values():
            all_args = _merge(all_args, terms)

        # The call itself may be a nondeterministic source.
        dotted: Optional[str] = None
        if isinstance(func, ast.Attribute):
            dotted = dotted_path(func, self.module.aliases)
        elif isinstance(func, ast.Name):
            alias = self.module.aliases.get(func.id)
            dotted = alias if alias is not None and "." in alias else None
        if dotted is not None and source_kind(dotted) is not None:
            return (Unknown(),)

        callee = self._resolve_callee(node)
        if callee is None:
            # Deterministic-function assumption (mirrors the taint
            # engine): an unresolved call computes something from its
            # inputs, so its result lives in the union of their
            # namespaces.
            return all_args

        callee_summary = self.analysis.summary(callee.qualname)
        substitution = {
            index: (terms[0] if len(terms) == 1 else join_terms(terms))
            for index, terms in arg_terms.items()
            if terms
        }
        for op in callee_summary.ops:
            via = _via(callee.name, op.via)
            if via is None:
                continue
            self._record_op(
                replace(
                    op,
                    line=node.lineno,
                    term=substitute(op.term, substitution),
                    via=via,
                )
            )
        if callee_summary.returns:
            return tuple(
                dict.fromkeys(
                    substitute(term, substitution)
                    for term in callee_summary.returns
                )
            )
        # A callee that returns nothing trackable (constructors, helpers
        # built from arithmetic) still computes from its inputs.
        return all_args

    def _call_arg_terms(self, node: ast.Call) -> Dict[int, Tuple[Term, ...]]:
        terms: Dict[int, Tuple[Term, ...]] = {}
        starred: Tuple[Term, ...] = ()
        position = 0
        for arg in node.args:
            if isinstance(arg, ast.Starred):
                starred = _merge(starred, self._eval(arg.value))
                continue
            terms[position] = self._eval(arg)
            position += 1
        callee = self._resolve_callee(node)
        names = callee.param_names if callee is not None else []
        for keyword in node.keywords:
            value = self._eval(keyword.value)
            if keyword.arg is None:
                starred = _merge(starred, value)
            elif keyword.arg in names:
                index = names.index(keyword.arg)
                terms[index] = _merge(terms.get(index, ()), value)
            else:
                starred = _merge(starred, value)
        if starred:
            span = max(len(names), position, max(terms, default=-1) + 1)
            for index in range(span):
                terms[index] = _merge(terms.get(index, ()), starred)
        return terms

    def _resolve_callee(self, node: ast.Call) -> Optional[FunctionInfo]:
        qualname = self.analysis.graph.resolve_call(
            self.info, node, self.local_types
        )
        if qualname is None:
            return None
        return self.analysis.table.functions.get(qualname)


def _merge(left: Tuple[Term, ...], right: Tuple[Term, ...]) -> Tuple[Term, ...]:
    merged = tuple(dict.fromkeys((*left, *right)))
    if len(merged) > _MAX_ENV_TERMS:
        return (join_terms(merged),)
    return merged


def _cross_concat(
    left: Tuple[Term, ...], right: Tuple[Term, ...]
) -> Tuple[Term, ...]:
    if not left:
        return right
    if not right:
        return left
    if len(left) > 3:
        left = (join_terms(left),)
    if len(right) > 3:
        right = (join_terms(right),)
    return tuple(
        dict.fromkeys(
            concat(first, second) for first in left for second in right
        )
    )


def footprint_for(project: Project) -> FootprintAnalysis:
    """The memoized :class:`FootprintAnalysis` for ``project`` (shares
    the symbol table and call graph with the taint engine)."""
    cached = getattr(project, "_footprint_analysis", None)
    if cached is None:
        from repro.analysis.dataflow import dataflow_for

        taint = dataflow_for(project)
        cached = FootprintAnalysis.build(taint.table, taint.graph)
        project._footprint_analysis = cached  # type: ignore[attr-defined]
    return cached
