"""Concurrency rules over lock-carrying classes.

The supported concurrency contract (DESIGN.md §6) is the Fabric peer's:
one committer (gateway -> orderer -> validator -> ledger commit) and N
readers (GHFK, GetState, range scans, inspect, audit) on one ledger.
The classes they share carry a lock -- ``MetricsRegistry``,
``HistoryDB``, ``BlockFileManager``, ``LSMStore``, ``MemStore`` and,
under the fault seam, ``FaultyFile``.  Each concurrency bug class has
one owning detector.  Two are static, here:

* **CONC001** (syntactic): attribute rebinds happen under *a* lock.  A
  method no threaded test drives is invisible to the sanitizer, so an
  unlocked ``self.x = ...`` there is this rule's alone.
* **CONC003** (lockset): no blocking operation (filesystem-seam I/O,
  ``time.sleep``, future ``.result()``, ``queue.get``) runs while a
  lock is held, directly or through any resolved call chain.  Latency
  is not a data race, so nothing dynamic sees it.  Sites where blocking
  under the lock is the *point* are allowlisted with a justification
  (see ``BLOCKING_ALLOWLIST``); a row that suppresses nothing is itself
  a finding.

Unlocked container traffic, check-then-act splits and lock-order cycles
belong to the dynamic sanitizer (:mod:`repro.sanitizer`), which
witnesses them at runtime with both sites and their locksets.

CONC003 is built on :mod:`repro.analysis.cfg`: per-function CFGs, a
lockset dataflow, and interprocedural propagation over the call graph.
The engine over-approximates held locks (may-analysis), so the rule can
report a lock as held on a path that releases it early; it never misses
a lexically-held one.

CONC001 is convention-driven, not file-driven: any class whose
``__init__`` binds a ``threading.Lock``/``RLock``/``Condition``/
``Semaphore`` to ``self.<something>`` opts in, project-wide.  Inside
such a class every ``self.attr = ...`` / ``self.attr += ...`` must be
lexically inside a ``with self.<lock>:`` block, except:

* ``__init__`` / ``__new__`` / ``__del__`` -- construction and teardown
  happen before/after the object is shared;
* methods named ``*_locked`` -- the documented convention for helpers
  whose caller already holds the lock;
* rebinding the lock attributes themselves.

Reads and in-place container writes are deliberately not checked: the
sanitizer convicts those at runtime with both racing sites, where a
syntactic rule would flag every read on every path.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.analysis.cfg import lockset_for
from repro.analysis.cfg.lockset import Chain, LockRef, LocksetAnalysis
from repro.analysis.dataflow import call_graph_for
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
        table = call_graph_for(project).table
        findings: List[Finding] = []
        for qualname in sorted(table.classes):
            klass = table.classes[qualname]
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
#: finding message would otherwise demand.  A row whose function is
#: analyzed but blocks under a lock in none of the row's kinds is
#: reported, so the table cannot outlive the code it excuses.
BLOCKING_ALLOWLIST: Dict[str, Tuple[FrozenSet[str], str]] = {
    "repro.storage.kv.lsm.LSMStore.write_batch": (
        frozenset({"io"}),
        "each run's WAL append must precede its memtable writes, and a "
        "flush falling inside the batch must happen between two runs, "
        "under the lock (recovery order)",
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
class BlockingUnderLockRule(Rule):
    """CONC003: no blocking operation while a lock is held.

    A lock held across a filesystem call, ``time.sleep``, a future
    ``.result()`` or a ``queue.get`` serializes every other thread
    behind that latency -- a reader waits out the committer's slowest
    disk write.  The rule follows resolved call chains, so hiding the
    I/O two helpers down still fires.  Sites
    where blocking under the lock *is* the contract (the LSM store's
    WAL-before-memtable ordering, the block-file manager's shared
    append handle) are allowlisted by qualname and kind in
    ``BLOCKING_ALLOWLIST`` with the justification the message would
    otherwise demand; the allowlist is per-kind, so ``time.sleep``
    under the LSM lock still fires.  An allowlist row that suppressed
    nothing in this run is reported at its function, so the table
    cannot rot.
    """

    rule_id = "CONC003"

    def check_project(self, project: Project) -> List[Finding]:
        analysis = lockset_for(project)
        findings: List[Finding] = []
        #: ``(qualname, kind)`` pairs an allowlist row suppressed.
        used: Set[Tuple[str, str]] = set()
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
                    used.add((qualname, kind))
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
        findings.extend(self._stale_rows(analysis, used))
        return findings

    def _stale_rows(
        self, analysis: LocksetAnalysis, used: Set[Tuple[str, str]]
    ) -> Iterator[Finding]:
        """One finding per allowlisted kind that suppressed nothing, for
        rows naming a function of this project."""
        for qualname, (kinds, _reason) in sorted(BLOCKING_ALLOWLIST.items()):
            summary = analysis.functions.get(qualname)
            if summary is None:
                continue
            for kind in sorted(kind for kind in kinds if (qualname, kind) not in used):
                yield Finding(
                    path=summary.info.source.relpath,
                    line=summary.info.node.lineno,  # type: ignore[attr-defined]
                    rule_id=self.rule_id,
                    message=(
                        f"BLOCKING_ALLOWLIST allows {kind} under a lock in "
                        f"{summary.info.scope_name}.{summary.info.name}(), "
                        f"but no {kind} operation runs under a lock there "
                        "-- delete the stale row"
                    ),
                )
