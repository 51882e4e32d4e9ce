"""Concurrency rules over lock-carrying classes.

Four rule families share one opt-in convention: any class whose
``__init__`` binds a ``threading`` lock to ``self.<attr>`` is treated
as shared across threads, project-wide.

* **CONC001** (syntactic): attribute writes happen under *a* lock.
* **CONC002** (lockset): the project-wide lock-*acquisition-order*
  graph is acyclic -- cycles are static deadlocks, reported with the
  witness path of every hop; a plain ``Lock`` re-acquired while held is
  the degenerate one-lock case (self-deadlock).
* **CONC003** (lockset): no blocking operation (filesystem-seam I/O,
  ``time.sleep``, future ``.result()``, ``queue.get``) runs while a
  lock is held, directly or through any resolved call chain.  Sites
  where blocking under the lock is the *point* are allowlisted with a
  justification (see ``BLOCKING_ALLOWLIST``).
* **CONC004** (lockset): check-then-act -- a guarded attribute read
  outside the lock feeding a decision whose locked arm writes that same
  attribute; the value can change between the check and the act.

CONC002-004 are built on :mod:`repro.analysis.cfg`: per-function CFGs,
a lockset dataflow, and interprocedural propagation over the call
graph.  The engine over-approximates held locks (may-analysis), so
these rules can report a lock as held on a path that releases it early;
they never miss a lexically-held one.

The ROADMAP's parallel-ingestion work shares three objects across
threads: the :class:`~repro.fabric.gateway.Gateway` (concurrent clients
submitting transactions), and the state-db backends
:class:`~repro.storage.kv.memstore.MemStore` and
:class:`~repro.storage.kv.lsm.LSMStore` (reads racing the indexer's
writes).  Those classes carry a ``threading`` lock for exactly that
reason -- and a lock only helps if every writer takes it.  A new method
that rebinds an attribute without the lock is invisible to tests (races
do not reproduce under pytest) and surfaces as a corrupted table list or
a lost retry count under real load, which is why the Fabric-tuning
literature keeps finding these bugs in the validation/commit path.

The rule is convention-driven, not file-driven: any class whose
``__init__`` binds a ``threading.Lock``/``RLock``/``Condition``/
``Semaphore`` to ``self.<something>`` opts in, project-wide.  Inside
such a class every ``self.attr = ...`` / ``self.attr += ...`` must be
lexically inside a ``with self.<lock>:`` block, except:

* ``__init__`` / ``__new__`` / ``__del__`` -- construction and teardown
  happen before/after the object is shared;
* methods named ``*_locked`` -- the documented convention for helpers
  whose caller already holds the lock;
* rebinding the lock attributes themselves.

Reads are deliberately not checked: the codebase tolerates racy reads
(metrics, ``__len__``) and flagging them would drown the signal.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.cfg import lockset_for
from repro.analysis.cfg.builder import CFGNode
from repro.analysis.cfg.lockset import (
    Chain,
    FunctionLocks,
    LockRef,
    LocksetAnalysis,
    class_locks,
)
from repro.analysis.dataflow import dataflow_for
from repro.analysis.dataflow.symbols import ClassInfo, FunctionInfo
from repro.analysis.findings import Finding
from repro.analysis.project import Project
from repro.analysis.registry import Rule, register

_EXEMPT_METHODS = {"__init__", "__new__", "__del__"}


def _is_lock_guard(item: ast.withitem, lock_attrs: Set[str]) -> bool:
    """Whether a ``with`` item acquires one of the class's locks
    (``with self._lock:`` -- optionally aliased ``as held``)."""
    expr = item.context_expr
    if isinstance(expr, ast.Call):  # with self._lock.acquire_timeout(...)-style
        expr = expr.func
        if isinstance(expr, ast.Attribute):
            expr = expr.value
    return (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
        and expr.attr in lock_attrs
    )


@register
class LockedAttributeWriteRule(Rule):
    """CONC001: once a class has a lock, attribute writes take it."""

    rule_id = "CONC001"

    def check_project(self, project: Project) -> List[Finding]:
        analysis = dataflow_for(project)
        findings: List[Finding] = []
        for qualname in sorted(analysis.table.classes):
            klass = analysis.table.classes[qualname]
            if not klass.lock_attrs:
                continue
            for name in sorted(klass.methods):
                if name in _EXEMPT_METHODS or name.endswith("_locked"):
                    continue
                findings.extend(self._check_method(klass, klass.methods[name]))
        return findings

    def _check_method(
        self, klass: ClassInfo, method: FunctionInfo
    ) -> List[Finding]:
        findings: List[Finding] = []

        def flag(node: ast.AST, attr: str) -> None:
            findings.append(
                Finding(
                    path=klass.source.relpath,
                    line=node.lineno,  # type: ignore[attr-defined]
                    rule_id=self.rule_id,
                    message=(
                        f"self.{attr} is written outside `with "
                        f"self.{sorted(klass.lock_attrs)[0]}:` in "
                        f"{klass.name}.{method.name}(); this class is "
                        "shared across threads, so an unlocked write "
                        "races every locked reader -- take the lock (or "
                        "suffix the method `_locked` if the caller holds "
                        "it)"
                    ),
                )
            )

        def written_attrs(statement: ast.stmt) -> List[ast.Attribute]:
            targets: List[ast.expr] = []
            if isinstance(statement, ast.Assign):
                targets = list(statement.targets)
            elif isinstance(statement, (ast.AnnAssign, ast.AugAssign)):
                targets = [statement.target]
            attrs: List[ast.Attribute] = []
            for target in targets:
                if isinstance(target, (ast.Tuple, ast.List)):
                    attrs.extend(
                        element
                        for element in target.elts
                        if isinstance(element, ast.Attribute)
                    )
                elif isinstance(target, ast.Attribute):
                    attrs.append(target)
            return [
                attr
                for attr in attrs
                if isinstance(attr.value, ast.Name)
                and attr.value.id == "self"
                and attr.attr not in klass.lock_attrs
            ]

        def visit(statements: List[ast.stmt], locked: bool) -> None:
            for statement in statements:
                if isinstance(statement, (ast.With, ast.AsyncWith)):
                    holds = locked or any(
                        _is_lock_guard(item, klass.lock_attrs)
                        for item in statement.items
                    )
                    visit(statement.body, holds)
                    continue
                if isinstance(
                    statement,
                    (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
                ):
                    continue  # nested scopes escape `self`'s convention
                if not locked:
                    for attr in written_attrs(statement):
                        flag(attr, attr.attr)
                for name in ("body", "orelse", "finalbody"):
                    block = getattr(statement, name, None)
                    if (
                        isinstance(block, list)
                        and block
                        and isinstance(block[0], ast.stmt)
                    ):
                        visit(block, locked)
                for handler in getattr(statement, "handlers", []) or []:
                    visit(handler.body, locked)

        visit(method.node.body, locked=False)  # type: ignore[attr-defined]
        return findings


def _chain_suffix(chain: Optional[Chain]) -> str:
    """Render the call steps below the reporting site (`` via a:1 -> b:2``)."""
    if not chain:
        return ""
    return " via " + " -> ".join(f"{step}:{line}" for step, line in chain)


#: Sites where blocking while holding the lock is the design, not a bug.
#: Keyed by function qualname; the value is the set of blocking-op kinds
#: that site is allowed (anything else still fires) plus the reason the
#: finding message would otherwise demand.
BLOCKING_ALLOWLIST: Dict[str, Tuple[FrozenSet[str], str]] = {
    "repro.fabric.blockcache.BlockCache.get_or_load": (
        frozenset({"future-wait"}),
        "single-flight rendezvous: waiters block on the loader's future by design",
    ),
    "repro.storage.kv.lsm.LSMStore.put": (
        frozenset({"io"}),
        "WAL append must precede the memtable write under the lock (recovery order)",
    ),
    "repro.storage.kv.lsm.LSMStore.delete": (
        frozenset({"io"}),
        "WAL append must precede the memtable delete under the lock (recovery order)",
    ),
    "repro.storage.kv.lsm.LSMStore.flush": (
        frozenset({"io"}),
        "flush publishes the sstable and truncates the WAL atomically w.r.t. writers",
    ),
    "repro.storage.kv.lsm.LSMStore.close": (
        frozenset({"io"}),
        "close must drain the final flush before marking the store closed",
    ),
    "repro.storage.kv.lsm.LSMStore.scrub": (
        frozenset({"io"}),
        "scrub re-verifies table checksums against a stable table list; "
        "concurrent flush/compaction swapping tables mid-scrub would "
        "misreport a replaced file as corrupt",
    ),
    # BlockFileManager: the shared append handle and the current-file
    # number ARE the guarded resource -- every touch (append, rollover,
    # flush-for-read, read-descriptor get-or-open, tail truncation, sync)
    # must happen under the manager lock or readers race the committer
    # (the blockfile-races regression suite exists because they did).
    "repro.storage.blockfile.BlockFileManager.append": (
        frozenset({"io"}),
        "append writes the record and may roll the file under the lock; "
        "a reader must never observe a half-rolled current handle",
    ),
    "repro.storage.blockfile.BlockFileManager._roll_over": (
        frozenset({"io"}),
        "closing the full file and opening its successor must be atomic "
        "w.r.t. readers flushing the shared append handle",
    ),
    "repro.storage.blockfile.BlockFileManager._reader": (
        frozenset({"io"}),
        "the read-descriptor cache is keyed by file number; a get-or-open "
        "outside the lock lets two readers open (and one leak) a handle, "
        "and the visibility flush shares the critical section",
    ),
    "repro.storage.blockfile.BlockFileManager.truncate_tail": (
        frozenset({"io"}),
        "recovery truncation rewrites the current file and rebinds the "
        "append handle; concurrent reads would see a torn file",
    ),
    "repro.storage.blockfile.BlockFileManager.sync": (
        frozenset({"io"}),
        "sync must flush/fsync the same handle generation it observed; "
        "racing a rollover could sync the freshly-closed handle",
    ),
}


@register
class LockOrderCycleRule(Rule):
    """CONC002: the project lock-acquisition order must be acyclic.

    Two threads taking the same pair of locks in opposite orders is the
    classic deadlock, and it never reproduces under pytest -- the window
    is microseconds wide.  This rule builds the project-wide graph with
    one edge ``A -> B`` whenever some code path may acquire ``B`` while
    holding ``A`` (lexical ``with`` blocks, explicit ``acquire()``, and
    acquisitions reached through any resolved call chain), then reports
    every cycle with the witness path of each hop, so the fix -- pick
    one global order -- is mechanical.  Re-entrant ``RLock`` self-edges
    are fine and skipped; a plain ``Lock`` re-acquired while already
    held deadlocks a thread against itself and is reported here too.
    The same graph is exported by ``repro lint --lock-graph {dot,json}``.
    """

    rule_id = "CONC002"

    def check_project(self, project: Project) -> List[Finding]:
        analysis = lockset_for(project)
        order = analysis.order
        findings: List[Finding] = []
        for lock, witness in sorted(order.self_deadlocks.items()):
            findings.append(
                Finding(
                    path=witness.path,
                    line=witness.line,
                    rule_id=self.rule_id,
                    message=(
                        f"{lock.short} is a plain threading.{lock.kind} "
                        f"re-acquired while already held in "
                        f"{witness.describe()}; the thread deadlocks "
                        "against itself -- use an RLock or drop the "
                        "nested acquisition"
                    ),
                )
            )
        for cycle in order.cycles():
            hops = []
            for position, lock in enumerate(cycle):
                following = cycle[(position + 1) % len(cycle)]
                witness = order.witness(lock, following)
                hops.append(
                    f"{lock.short} -> {following.short} in {witness.describe()}"
                )
            anchor = order.witness(cycle[0], cycle[1 % len(cycle)])
            findings.append(
                Finding(
                    path=anchor.path,
                    line=anchor.line,
                    rule_id=self.rule_id,
                    message=(
                        "lock-order cycle (possible deadlock): "
                        + "; ".join(hops)
                        + " -- acquire these locks in one global order"
                    ),
                )
            )
        return findings


@register
class BlockingUnderLockRule(Rule):
    """CONC003: no blocking operation while a lock is held.

    A lock held across a filesystem call, ``time.sleep``, a future
    ``.result()`` or a ``queue.get`` serializes every other thread
    behind that latency -- the parallel query path's speedup quietly
    collapses to the slowest disk read.  The rule follows resolved call
    chains, so hiding the I/O two helpers down still fires.  Sites
    where blocking under the lock *is* the contract (the BlockCache
    single-flight wait, the LSM store's WAL-before-memtable ordering)
    are allowlisted by qualname and kind in ``BLOCKING_ALLOWLIST`` with
    the justification the message would otherwise demand; the allowlist
    is per-kind, so ``time.sleep`` under the LSM lock still fires.
    """

    rule_id = "CONC003"

    def check_project(self, project: Project) -> List[Finding]:
        analysis = lockset_for(project)
        findings: List[Finding] = []
        for qualname in sorted(analysis.functions):
            summary = analysis.functions[qualname]
            if summary.info.name in _EXEMPT_METHODS:
                continue
            allowed = BLOCKING_ALLOWLIST.get(qualname, (frozenset(), ""))[0]
            # (line, kind, description, held locks, chain below the call)
            events: List[
                Tuple[int, str, str, FrozenSet[LockRef], Optional[Chain]]
            ] = []
            for op, held in summary.blocking:
                if held:
                    events.append((op.line, op.kind, op.description, held, None))
            for callee, line, held in summary.calls:
                if not held:
                    continue
                for kind, (chain, description) in sorted(
                    analysis.transitive_blocking.get(callee, {}).items()
                ):
                    events.append((line, kind, description, held, chain))
            reported: Set[Tuple[str, str]] = set()
            for line, kind, description, held, chain in sorted(
                events, key=lambda event: (event[0], event[1])
            ):
                if kind in allowed:
                    continue
                for lock in sorted(held):
                    key = (lock.label, kind)
                    if key in reported:
                        continue
                    reported.add(key)
                    findings.append(
                        Finding(
                            path=summary.info.source.relpath,
                            line=line,
                            rule_id=self.rule_id,
                            message=(
                                f"{description} ({kind}) may block while "
                                f"holding {lock.short} in "
                                f"{summary.info.scope_name}."
                                f"{summary.info.name}()"
                                f"{_chain_suffix(chain)}; every other "
                                "thread queues behind this latency -- do "
                                "the blocking work outside the lock, or "
                                "allowlist the site with a justification"
                            ),
                        )
                    )
        return findings


def _stmt_written_attrs(stmt: ast.AST) -> Set[str]:
    """``self.<attr>`` names a simple statement writes (attribute
    rebinding or item assignment through the attribute)."""
    targets: List[ast.expr] = []
    if isinstance(stmt, ast.Assign):
        targets = list(stmt.targets)
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        targets = [stmt.target]
    written: Set[str] = set()
    for target in targets:
        if isinstance(target, (ast.Tuple, ast.List)):
            candidates: List[ast.expr] = list(target.elts)
        else:
            candidates = [target]
        for candidate in candidates:
            if isinstance(candidate, ast.Subscript):
                candidate = candidate.value
            if (
                isinstance(candidate, ast.Attribute)
                and isinstance(candidate.value, ast.Name)
                and candidate.value.id == "self"
            ):
                written.add(candidate.attr)
    return written


def _guarded_attr_reads(expr: ast.AST, guarded: Set[str]) -> Set[str]:
    """Guarded ``self.<attr>`` names an expression reads."""
    return {
        node.attr
        for node in ast.walk(expr)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and node.attr in guarded
    }


@register
class CheckThenActRule(Rule):
    """CONC004: don't check a guarded attribute outside the lock and act
    on the answer inside it.

    ``if self.x: with self._lock: self.x = ...`` is atomic-looking code
    with a race in the gap: another thread can change ``self.x`` between
    the unlocked read and the locked write, so the write acts on a stale
    decision.  An attribute counts as *guarded* when some method writes
    it under the class's lock (or in a ``*_locked`` helper); the rule
    then flags ``if``/``while`` tests that read a guarded attribute --
    directly or through a local assigned from one -- with no lock held,
    when an arm of that same statement writes the attribute under the
    lock.  Reads that never feed a locked write stay legal (the codebase
    tolerates racy reads; see CONC001's rationale).
    """

    rule_id = "CONC004"

    def check_project(self, project: Project) -> List[Finding]:
        analysis = lockset_for(project)
        table = analysis.table
        findings: List[Finding] = []
        for class_qualname in sorted(table.classes):
            klass = table.classes[class_qualname]
            locks = class_locks(table, class_qualname)
            if not locks:
                continue
            lock_refs = frozenset(locks.values())
            guarded = self._guarded_attrs(analysis, klass, lock_refs)
            guarded -= set(locks)
            if not guarded:
                continue
            for name in sorted(klass.methods):
                if name in _EXEMPT_METHODS or name.endswith("_locked"):
                    continue
                summary = analysis.functions.get(klass.methods[name].qualname)
                if summary is not None:
                    findings.extend(
                        self._check_method(summary, guarded, lock_refs)
                    )
        return findings

    @staticmethod
    def _guarded_attrs(
        analysis: LocksetAnalysis,
        klass: ClassInfo,
        lock_refs: FrozenSet[LockRef],
    ) -> Set[str]:
        guarded: Set[str] = set()
        for name in sorted(klass.methods):
            if name in _EXEMPT_METHODS:
                continue
            summary = analysis.functions.get(klass.methods[name].qualname)
            if summary is None:
                continue
            locked_helper = name.endswith("_locked")
            for node in summary.cfg.real_nodes():
                if node.kind != "stmt" or node.stmt is None:
                    continue
                if locked_helper or (
                    summary.held_at[node.index] & lock_refs
                ):
                    guarded |= _stmt_written_attrs(node.stmt)
        return guarded

    def _check_method(
        self,
        summary: FunctionLocks,
        guarded: Set[str],
        lock_refs: FrozenSet[LockRef],
    ) -> List[Finding]:
        findings: List[Finding] = []
        stmt_nodes = {
            id(node.stmt): node
            for node in summary.cfg.real_nodes()
            if node.kind == "stmt" and node.stmt is not None
        }
        #: local name -> guarded attrs its current value was read from
        #: without the lock (assignment order approximates flow order).
        tainted: Dict[str, Set[str]] = {}
        for node in summary.cfg.real_nodes():
            held = summary.held_at[node.index] & lock_refs
            stmt = node.stmt
            if (
                node.kind == "stmt"
                and isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
            ):
                reads = _guarded_attr_reads(stmt.value, guarded)
                tainted[stmt.targets[0].id] = reads if not held else set()
                continue
            if node.kind not in ("test", "loop"):
                continue
            if not isinstance(stmt, (ast.If, ast.While)):
                continue
            if held:
                continue
            reads = _guarded_attr_reads(stmt.test, guarded)
            for name_node in ast.walk(stmt.test):
                if isinstance(name_node, ast.Name):
                    reads |= tainted.get(name_node.id, set())
            if not reads:
                continue
            finding = self._locked_write_below(
                summary, node.line, stmt, reads, lock_refs, stmt_nodes
            )
            if finding is not None:
                findings.append(finding)
        return findings

    def _locked_write_below(
        self,
        summary: FunctionLocks,
        test_line: int,
        stmt: ast.stmt,
        reads: Set[str],
        lock_refs: FrozenSet[LockRef],
        stmt_nodes: Dict[int, CFGNode],
    ) -> Optional[Finding]:
        for sub in ast.walk(stmt):
            if sub is stmt or not isinstance(sub, ast.stmt):
                continue
            written = _stmt_written_attrs(sub) & reads
            if not written:
                continue
            write_node = stmt_nodes.get(id(sub))
            if write_node is None:
                continue
            if not (summary.held_at[write_node.index] & lock_refs):
                continue
            attr = sorted(written)[0]
            lock = sorted(summary.held_at[write_node.index] & lock_refs)[0]
            return Finding(
                path=summary.info.source.relpath,
                line=test_line,
                rule_id=self.rule_id,
                message=(
                    f"self.{attr} is checked here without {lock.short} "
                    f"but written under it at line {write_node.line} "
                    f"({summary.info.scope_name}.{summary.info.name}()); "
                    "the value can change between the check and the act "
                    "-- move the check inside the locked region"
                ),
            )
        return None
