"""The sanitizer runtime: happens-before + lockset race detection.

One :class:`Sanitizer` instance is a detection *session*.  It keeps

* a vector clock per participating thread (lazily registered on first
  event, inheriting the forking thread's clock via the ``Thread.start``
  patch);
* a clock per traced lock, joined on acquire and updated on release --
  the classic release->acquire happens-before edge;
* per-thread *locksets* (which traced locks the thread holds right now);
* a shadow cell per ``(object, attribute)`` recording the last write
  epoch and the last read epoch per thread.

An access pair is reported as a race only when the vector clocks say
*concurrent* (FastTrack epoch check) **and** the locksets are disjoint
(Eraser check).  Pure happens-before detection would flag benign
lock-protected accesses whenever the schedule didn't happen to order
them; pure lockset detection would flag fork/join hand-offs that are
perfectly ordered without locks.  The intersection keeps only pairs
that no lock protects *and* no ordering separates -- which is also what
makes the mutation-acceptance tests deterministic: a missing-lock bug
is detected from the HB *edges* of the schedule, not from physically
colliding timing.

Module-level lifecycle: :func:`enable` / :func:`disable` for the
whole-process mode (``REPRO_SAN=1`` test runs), :func:`sanitized` for a
scoped session (unit tests, ``repro san`` scenarios).  Installing a
session patches ``threading.Thread.start``/``join`` (fork/join edges),
instruments the ``@sanitize_shared`` classes, and installs the traced
lock factory into :mod:`repro.common.locks`.  The factory stays
installed after :func:`disable` -- traced locks consult the *active*
session dynamically and cost one global read when none is -- so locks
constructed between sessions still participate in the next one.
"""

from __future__ import annotations

import os
import sys
import threading
import traceback
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.common import locks as _seam
from repro.common.errors import SanitizerError
from repro.sanitizer.fuzz import FuzzSchedule
from repro.sanitizer.report import AccessWitness, RaceReport, SanitizerReport
from repro.sanitizer.vectorclock import (
    Clock,
    advance,
    covers,
    fresh_tid,
    join_into,
    new_clock,
)

#: Frames from inside this package are never a race's call site.
_PKG_DIR = os.path.dirname(os.path.abspath(__file__))

#: Attribute stashed on Thread objects by the patched ``start``:
#: ``(id(sanitizer), parent clock snapshot)``.
_FORK_ATTR = "_repro_san_fork"
#: Stashed by the run wrapper at thread exit: ``(id(sanitizer), clock)``.
_FINISH_ATTR = "_repro_san_finish"


def _rel(path: str) -> str:
    """Repo-relative path when possible (stable across machines)."""
    try:
        rel = os.path.relpath(path, os.getcwd())
    except ValueError:  # pragma: no cover - different drive on win32
        return path
    return path if rel.startswith("..") else rel


def _call_site() -> Tuple[str, int, str]:
    """The innermost frame *outside* the sanitizer package."""
    frame = sys._getframe(1)
    while frame is not None:
        code = frame.f_code
        if not code.co_filename.startswith(_PKG_DIR):
            return _rel(code.co_filename), frame.f_lineno, code.co_name
        frame = frame.f_back
    return "<unknown>", 0, "<unknown>"  # pragma: no cover


def _capture_stack(limit: int = 12) -> Tuple[str, ...]:
    """Rendered stack of the current thread, sanitizer frames removed."""
    frames = []
    for entry in traceback.extract_stack():
        if entry.filename.startswith(_PKG_DIR):
            continue
        frames.append(f"{_rel(entry.filename)}:{entry.lineno} in {entry.name}")
    return tuple(frames[-limit:])


@dataclass
class _Access:
    """One recorded access, summarized by its FastTrack epoch."""

    tid: int
    stamp: int
    is_write: bool
    op: str
    lockset: FrozenSet[int]
    locks: Tuple[str, ...]
    thread: str
    path: str
    line: int
    function: str

    def witness(self, stack: Tuple[str, ...] = ()) -> AccessWitness:
        return AccessWitness(
            thread=self.thread,
            op=self.op,
            path=self.path,
            line=self.line,
            function=self.function,
            locks=self.locks,
            stack=stack,
        )


@dataclass
class _ShadowCell:
    """Shadow state for one ``(object, attribute)`` pair."""

    cls: str
    owner_ref: Optional["weakref.ref[Any]"]
    write: Optional[_Access] = None
    reads: Dict[int, _Access] = field(default_factory=dict)

    def owns(self, owner: object) -> bool:
        """Guards against ``id()`` reuse after the original owner died."""
        if self.owner_ref is None:
            return True
        return self.owner_ref() is owner


class _ThreadState(threading.local):
    """Per-thread sanitizer state (one instance per Sanitizer).

    ``threading.local`` subclass: each thread touching the same
    ``_ThreadState`` object sees its own attribute namespace, lazily
    initialized by ``__init__`` on first access from that thread.
    """

    def __init__(self) -> None:
        self.tid: int = 0  # 0 = not registered yet
        self.clock: Clock = {}
        #: Stack of currently held traced locks: ``(id(lock), name)``.
        self.held: List[Tuple[int, str]] = []
        #: Re-entrancy guard: sanitizer internals never record events.
        self.suppress: bool = False


class Sanitizer:
    """One race-detection session.  See the module docstring."""

    def __init__(self, seed: int = 0, fuzz: Optional[FuzzSchedule] = None) -> None:
        self.seed = seed
        self.fuzz = fuzz
        self._local = _ThreadState()
        #: Guards cells / races / lock bookkeeping.  A leaf lock: the
        #: sanitizer never calls out while holding it.
        self._mu = threading.Lock()
        self._cells: Dict[Tuple[int, str], _ShadowCell] = {}
        self._races: List[RaceReport] = []
        self._race_keys: Set[Tuple[str, str, str, str, str]] = set()
        self._lock_clocks: Dict[int, Clock] = {}
        #: Acquisition-order edges: (held name, acquired name) -> witness.
        self._lock_edges: Dict[Tuple[str, str], str] = {}
        self._events = 0

    # -- thread registration and fork/join edges ------------------------

    def state(self) -> _ThreadState:
        """This thread's state, registering it on first touch.

        Registration inherits the forking thread's clock snapshot if the
        ``Thread.start`` patch stashed one for this session.
        """
        st = self._local
        if st.tid == 0:
            st.tid = fresh_tid()
            st.clock = new_clock(st.tid)
            fork = getattr(threading.current_thread(), _FORK_ATTR, None)
            if fork is not None and fork[0] == id(self):
                join_into(st.clock, fork[1])
        return st

    def fork_clock(self) -> Clock:
        """Snapshot the current thread's clock and tick it (fork edge)."""
        st = self.state()
        snapshot = dict(st.clock)
        advance(st.clock, st.tid)
        return snapshot

    def join_clock(self, finished: Clock) -> None:
        """Merge a finished unit of work's clock (join edge)."""
        st = self.state()
        join_into(st.clock, finished)

    def finish_clock(self) -> Clock:
        """Snapshot this thread's clock for a joiner, then tick it.

        The tick keeps the thread's *later* work concurrent with
        whatever observes the snapshot -- without it, everything the
        worker does after the hand-off would look ordered too.
        """
        st = self.state()
        snapshot = dict(st.clock)
        advance(st.clock, st.tid)
        return snapshot

    # -- lock events (called by the traced wrappers) --------------------

    def on_acquire(self, lock: object, name: str) -> None:
        """After the inner lock is held: HB join + lockset + order graph."""
        st = self.state()
        if st.suppress:
            return
        st.suppress = True
        try:
            with self._mu:
                self._events += 1
                lock_clock = self._lock_clocks.get(id(lock))
                if lock_clock:
                    join_into(st.clock, lock_clock)
                for _, held_name in st.held:
                    if held_name != name:
                        edge = (held_name, name)
                        if edge not in self._lock_edges:
                            path, line, function = _call_site()
                            self._lock_edges[edge] = (
                                f"{held_name} -> {name} at {path}:{line} in {function}"
                            )
            st.held.append((id(lock), name))
        finally:
            st.suppress = False

    def on_release(self, lock: object, name: str) -> None:
        """Before the inner lock is released: publish the thread's clock."""
        st = self.state()
        if st.suppress:
            return
        st.suppress = True
        try:
            with self._mu:
                self._events += 1
                lock_clock = self._lock_clocks.setdefault(id(lock), {})
                join_into(lock_clock, st.clock)
            advance(st.clock, st.tid)
            for index in range(len(st.held) - 1, -1, -1):
                if st.held[index][0] == id(lock):
                    del st.held[index]
                    break
        finally:
            st.suppress = False

    def fuzz_point(self, kind: str) -> None:
        """A schedule perturbation point (lock/seam boundary)."""
        if self.fuzz is None:
            return
        st = self.state()
        if st.suppress:
            return
        self.fuzz.maybe_yield(st.tid)

    # -- shared-state events (called by the instrumented classes) -------

    def record(
        self,
        owner: object,
        cls_name: str,
        attr: str,
        op: str,
        is_write: bool,
        racy_ok: FrozenSet[str] = frozenset(),
    ) -> None:
        """One access to a tracked attribute (or its container)."""
        st = self.state()
        if st.suppress:
            return
        st.suppress = True
        try:
            path, line, function = _call_site()
            if function in racy_ok and not is_write:
                return
            access = _Access(
                tid=st.tid,
                stamp=st.clock[st.tid],
                is_write=is_write,
                op=op,
                lockset=frozenset(lid for lid, _ in st.held),
                locks=tuple(lname for _, lname in st.held),
                thread=threading.current_thread().name,
                path=path,
                line=line,
                function=function,
            )
            with self._mu:
                self._events += 1
                self._record_locked(owner, cls_name, attr, access, st)
        finally:
            st.suppress = False
        if self.fuzz is not None and is_write:
            self.fuzz_point("write")

    def _record_locked(
        self,
        owner: object,
        cls_name: str,
        attr: str,
        access: _Access,
        st: _ThreadState,
    ) -> None:
        key = (id(owner), attr)
        cell = self._cells.get(key)
        if cell is not None and not cell.owns(owner):
            cell = None  # id() was reused by a new object
        if cell is None:
            try:
                ref: Optional["weakref.ref[Any]"] = weakref.ref(owner)
            except TypeError:  # pragma: no cover - __slots__ without __weakref__
                ref = None
            cell = _ShadowCell(cls=cls_name, owner_ref=ref)
            self._cells[key] = cell
        if access.is_write:
            priors = list(cell.reads.values())
            if cell.write is not None:
                priors.append(cell.write)
            for prior in priors:
                self._check(cell, attr, prior, access, st)
            cell.write = access
            cell.reads.clear()
        else:
            if cell.write is not None:
                self._check(cell, attr, cell.write, access, st)
            cell.reads[access.tid] = access

    def _check(
        self,
        cell: _ShadowCell,
        attr: str,
        prior: _Access,
        current: _Access,
        st: _ThreadState,
    ) -> None:
        if prior.tid == current.tid:
            return
        if covers(st.clock, prior.tid, prior.stamp):
            return  # ordered: prior happens-before this access
        if prior.lockset & current.lockset:
            return  # a common lock protects the pair
        if prior.is_write and current.is_write:
            kind = "write-write"
        elif prior.is_write:
            kind = "write-read"
        else:
            kind = "read-write"
        dedup = (
            cell.cls,
            attr,
            kind,
            f"{prior.path}:{prior.line}",
            f"{current.path}:{current.line}",
        )
        if dedup in self._race_keys:
            return
        self._race_keys.add(dedup)
        self._races.append(
            RaceReport(
                kind=kind,
                cls=cell.cls,
                attr=attr,
                first=prior.witness(),
                second=current.witness(stack=_capture_stack()),
            )
        )

    # -- reporting ------------------------------------------------------

    @property
    def races(self) -> List[RaceReport]:
        with self._mu:
            return list(self._races)

    @property
    def events_traced(self) -> int:
        return self._events

    def lock_order_cycles(self) -> List[Dict[str, Any]]:
        """Cycles in the dynamic acquisition-order graph.

        For every edge ``a -> b``, look for a path ``b ~> a`` (BFS); a
        hit closes a cycle.  Cycles are normalized by rotating the
        smallest lock name first so each distinct loop reports once.
        """
        with self._mu:
            edges = dict(self._lock_edges)
        graph: Dict[str, List[str]] = {}
        for src, dst in edges:
            graph.setdefault(src, []).append(dst)
        seen: Set[Tuple[str, ...]] = set()
        cycles: List[Dict[str, Any]] = []
        for src, dst in edges:
            path = self._shortest_path(graph, dst, src)
            if path is None:
                continue
            loop = [src] + path  # src -> dst -> ... -> src
            rotation = min(range(len(loop) - 1), key=lambda i: loop[i])
            normalized = tuple(
                loop[(rotation + i) % (len(loop) - 1)] for i in range(len(loop) - 1)
            )
            if normalized in seen:
                continue
            seen.add(normalized)
            hops = list(normalized) + [normalized[0]]
            witnesses = [
                edges.get((hops[i], hops[i + 1]), f"{hops[i]} -> {hops[i + 1]}")
                for i in range(len(hops) - 1)
            ]
            cycles.append({"locks": hops, "witnesses": witnesses})
        return cycles

    @staticmethod
    def _shortest_path(
        graph: Dict[str, List[str]], start: str, goal: str
    ) -> Optional[List[str]]:
        frontier: List[List[str]] = [[start]]
        visited = {start}
        while frontier:
            next_frontier: List[List[str]] = []
            for path in frontier:
                if path[-1] == goal:
                    return path
                for neighbor in graph.get(path[-1], []):
                    if neighbor not in visited:
                        visited.add(neighbor)
                        next_frontier.append(path + [neighbor])
            frontier = next_frontier
        return None

    def build_report(
        self,
        source: str = "scenarios",
        scenarios: Optional[List[str]] = None,
        workers: int = 1,
        fuzz_rounds: int = 0,
        duration_seconds: float = 0.0,
    ) -> SanitizerReport:
        """Snapshot this session's races and cycles as a report."""
        return SanitizerReport(
            seed=self.seed,
            workers=workers,
            fuzz_rounds=fuzz_rounds,
            source=source,
            scenarios=list(scenarios or []),
            races=self.races,
            lock_order_cycles=self.lock_order_cycles(),
            events_traced=self.events_traced,
            duration_seconds=duration_seconds,
        )


# -- module lifecycle: the active session and the process patches -------

_ACTIVE: Optional[Sanitizer] = None
_PATCH_DEPTH = 0
_ORIG_START: Any = None
_ORIG_JOIN: Any = None


def active() -> Optional[Sanitizer]:
    """The sanitizer session currently collecting events, if any."""
    return _ACTIVE


def _patched_start(thread: threading.Thread, *args: Any, **kwargs: Any) -> None:
    sanitizer = _ACTIVE
    if sanitizer is not None:
        setattr(thread, _FORK_ATTR, (id(sanitizer), sanitizer.fork_clock()))
        original_run = thread.run

        def run_with_finish_clock() -> None:
            try:
                original_run()
            finally:
                finishing = _ACTIVE
                if finishing is not None:
                    fork = getattr(thread, _FORK_ATTR, None)
                    if fork is not None and fork[0] == id(finishing):
                        setattr(
                            thread,
                            _FINISH_ATTR,
                            (id(finishing), finishing.finish_clock()),
                        )

        thread.run = run_with_finish_clock  # type: ignore[method-assign]
    _ORIG_START(thread, *args, **kwargs)


def _patched_join(
    thread: threading.Thread, timeout: Optional[float] = None
) -> None:
    _ORIG_JOIN(thread, timeout)
    sanitizer = _ACTIVE
    if sanitizer is not None and not thread.is_alive():
        finish = getattr(thread, _FINISH_ATTR, None)
        if finish is not None and finish[0] == id(sanitizer):
            sanitizer.join_clock(finish[1])


def _install_patches() -> None:
    global _PATCH_DEPTH, _ORIG_START, _ORIG_JOIN
    from repro.sanitizer.shared import instrument_all

    if _PATCH_DEPTH == 0:
        from repro.sanitizer.locks import SanitizerFactory

        _ORIG_START = threading.Thread.start
        _ORIG_JOIN = threading.Thread.join
        threading.Thread.start = _patched_start  # type: ignore[method-assign]
        threading.Thread.join = _patched_join  # type: ignore[method-assign]
        # The traced-lock factory stays installed after the session ends
        # (see module docstring): wrappers are inert without a session.
        if not isinstance(_seam.current_factory(), SanitizerFactory):
            _seam.install_factory(SanitizerFactory())
    # Every (re-)enable, not just depth 0: @sanitize_shared classes whose
    # modules were imported since the outer session started must be
    # caught up before this session records anything.
    instrument_all()
    _PATCH_DEPTH += 1


def _uninstall_patches() -> None:
    global _PATCH_DEPTH
    _PATCH_DEPTH -= 1
    if _PATCH_DEPTH == 0:
        from repro.sanitizer.shared import uninstrument_all

        threading.Thread.start = _ORIG_START  # type: ignore[method-assign]
        threading.Thread.join = _ORIG_JOIN  # type: ignore[method-assign]
        uninstrument_all()


def enable(seed: int = 0, fuzz: Optional[FuzzSchedule] = None) -> Sanitizer:
    """Start a process-wide session (``REPRO_SAN=1`` mode).

    Raises :class:`SanitizerError` if one is already active -- use
    :func:`sanitized` for scoped/nested sessions.
    """
    global _ACTIVE
    if _ACTIVE is not None:
        raise SanitizerError("a sanitizer session is already active")
    _install_patches()
    _ACTIVE = Sanitizer(seed=seed, fuzz=fuzz)
    return _ACTIVE


def disable() -> Sanitizer:
    """End the process-wide session; returns it for report building."""
    global _ACTIVE
    if _ACTIVE is None:
        raise SanitizerError("no sanitizer session is active")
    sanitizer = _ACTIVE
    _ACTIVE = None
    _uninstall_patches()
    return sanitizer


@contextmanager
def sanitized(
    seed: int = 0, fuzz: Optional[FuzzSchedule] = None
) -> Iterator[Sanitizer]:
    """A scoped session; nests inside (and shadows) any active one."""
    global _ACTIVE
    previous = _ACTIVE
    _install_patches()
    _ACTIVE = Sanitizer(seed=seed, fuzz=fuzz)
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = previous
        _uninstall_patches()
