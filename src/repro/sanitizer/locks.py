"""Traced synchronization primitives and the sanitizer's lock factory.

:class:`TracedLock` / :class:`TracedRLock` wrap the real ``threading``
primitives and report acquire/release to the *active* sanitizer session
-- looked up dynamically per event, so a lock constructed while no
session is running still participates in a later one, and a lock that
outlives a session goes quiet again.

:class:`SanitizerFactory` plugs both into the :mod:`repro.common.locks`
seam.

One bug is promoted from "detect" to "refuse": a thread re-acquiring a
plain (non-reentrant) ``TracedLock`` it already holds would deadlock
the process with certainty, so the wrapper raises
:class:`~repro.common.errors.SanitizerError` instead of hanging the
test run.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.common.errors import SanitizerError
from repro.common.locks import LockLike
from repro.sanitizer import runtime


class TracedLock:
    """A ``threading.Lock`` that reports to the active sanitizer."""

    def __init__(self, name: str = "") -> None:
        self._inner = threading.Lock()
        self.name = name or f"lock@{id(self):#x}"
        #: ident of the holding thread (for self-deadlock detection).
        self._owner: Optional[int] = None

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        """Acquire, emitting the happens-before/lockset events."""
        sanitizer = runtime.active()
        if sanitizer is not None:
            if blocking and self._owner == threading.get_ident():
                raise SanitizerError(
                    f"thread {threading.current_thread().name!r} re-acquired "
                    f"non-reentrant lock {self.name!r} it already holds "
                    "(certain deadlock)"
                )
            sanitizer.fuzz_point("acquire")
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            self._owner = threading.get_ident()  # repro-lint: disable=CONC001
            if sanitizer is not None:
                sanitizer.on_acquire(self, self.name)
        return acquired

    def release(self) -> None:
        """Release, publishing this thread's clock to the lock first."""
        sanitizer = runtime.active()
        if sanitizer is not None:
            sanitizer.on_release(self, self.name)
        self._owner = None  # repro-lint: disable=CONC001
        self._inner.release()

    def locked(self) -> bool:
        """Whether the lock is currently held (by anyone)."""
        return self._inner.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TracedLock {self.name!r} locked={self._inner.locked()}>"


class TracedRLock:
    """A ``threading.RLock`` reporting only outermost acquire/release.

    Re-entrant depth is sanitizer bookkeeping, not a happens-before
    event: only the first acquire joins the lock's clock and only the
    final release publishes to it, matching the real mutual-exclusion
    boundary.
    """

    def __init__(self, name: str = "") -> None:
        self._inner = threading.RLock()
        self.name = name or f"rlock@{id(self):#x}"
        self._owner: Optional[int] = None
        self._depth = 0

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        """Acquire; only the outermost acquire is a sanitizer event."""
        sanitizer = runtime.active()
        if sanitizer is not None and self._owner != threading.get_ident():
            sanitizer.fuzz_point("acquire")
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            ident = threading.get_ident()
            if self._owner == ident:
                self._depth += 1  # repro-lint: disable=CONC001
            else:
                self._owner = ident  # repro-lint: disable=CONC001
                self._depth = 1  # repro-lint: disable=CONC001
                if sanitizer is not None:
                    sanitizer.on_acquire(self, self.name)
        return acquired

    def release(self) -> None:
        """Release; only the final release is a sanitizer event."""
        if self._owner == threading.get_ident() and self._depth == 1:
            sanitizer = runtime.active()
            if sanitizer is not None:
                sanitizer.on_release(self, self.name)
            self._owner = None  # repro-lint: disable=CONC001
            self._depth = 0  # repro-lint: disable=CONC001
        elif self._owner == threading.get_ident():
            self._depth -= 1  # repro-lint: disable=CONC001
        self._inner.release()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TracedRLock {self.name!r} depth={self._depth}>"


class SanitizerFactory:
    """The :class:`repro.common.locks.ConcurrencyFactory` that traces."""

    def make_lock(self, name: str) -> LockLike:
        """A :class:`TracedLock` for construction site ``name``."""
        return TracedLock(name)

    def make_rlock(self, name: str) -> LockLike:
        """A :class:`TracedRLock` for construction site ``name``."""
        return TracedRLock(name)
