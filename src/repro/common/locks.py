"""The process-wide concurrency seam: where every lock comes from.

Every lock-carrying class in the tree (MetricsRegistry, LSMStore,
MemStore, BlockFileManager, HistoryDB, FaultyFile) acquires its
synchronization primitives from this module instead of calling
``threading.Lock()`` directly.
That single indirection is what lets the dynamic race sanitizer
(:mod:`repro.sanitizer`) observe every acquire/release in the process
without any per-call-site instrumentation (thread fork/join edges come
from its ``threading.Thread`` patch) -- and what lets ``repro-lint``
keep its static lock model: the analyzer recognizes :func:`make_lock` /
:func:`make_rlock` as ``threading`` factory calls, so CONC001 and
CONC003 see the same lock-carrying classes the sanitizer traces.

The default factory hands out plain ``threading`` primitives, so with
no sanitizer installed the seam costs one function call at lock
*construction* time and nothing per acquire.  Installing a factory
(:func:`install_factory`) swaps what future constructions return; locks
already handed out are unaffected, which is why the sanitizer's
wrappers consult the *active* runtime dynamically rather than binding
to one at construction.
"""

from __future__ import annotations

import threading
from typing import Any, Protocol

__all__ = [
    "LockLike",
    "ConcurrencyFactory",
    "make_lock",
    "make_rlock",
    "install_factory",
    "reset_factory",
    "current_factory",
]


class LockLike(Protocol):
    """The lock surface the codebase uses (``with`` + explicit acquire)."""

    def acquire(self, blocking: bool = ..., timeout: float = ...) -> bool:
        """Acquire the lock; returns whether it was acquired."""
        ...

    def release(self) -> None:
        """Release the lock."""
        ...

    def __enter__(self) -> bool: ...

    def __exit__(self, *exc_info: object) -> Any: ...


class ConcurrencyFactory(Protocol):
    """What an installed factory must provide.

    ``name`` identifies the construction site (conventionally
    ``ClassName.attr``); the default factory ignores it, the sanitizer
    uses it in witnesses and the dynamic lock-order graph.
    """

    def make_lock(self, name: str) -> LockLike:
        """Build a mutex for construction site ``name``."""
        ...

    def make_rlock(self, name: str) -> LockLike:
        """Build a re-entrant mutex for construction site ``name``."""
        ...


class _DefaultFactory:
    """Plain ``threading`` primitives."""

    def make_lock(self, name: str) -> LockLike:
        return threading.Lock()

    def make_rlock(self, name: str) -> LockLike:
        return threading.RLock()


_DEFAULT = _DefaultFactory()
_factory: ConcurrencyFactory = _DEFAULT


def make_lock(name: str = "") -> LockLike:
    """A mutex from the installed factory (default: ``threading.Lock``)."""
    return _factory.make_lock(name)


def make_rlock(name: str = "") -> LockLike:
    """A re-entrant mutex from the installed factory."""
    return _factory.make_rlock(name)


def install_factory(factory: ConcurrencyFactory) -> ConcurrencyFactory:
    """Install ``factory`` for future constructions; returns the previous
    one so callers can restore it (the sanitizer does this on disable)."""
    global _factory
    previous = _factory
    _factory = factory
    return previous


def reset_factory() -> None:
    """Restore the plain-``threading`` default factory."""
    global _factory
    _factory = _DEFAULT


def current_factory() -> ConcurrencyFactory:
    """The factory new locks currently come from."""
    return _factory
