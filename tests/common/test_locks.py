"""The concurrency-seam factory: defaults, install/reset."""

from __future__ import annotations

import threading

import pytest

from repro.common import locks


@pytest.fixture(autouse=True)
def _default_factory():
    # Pin the plain-threading default for the duration of each test so
    # the module's "default behaviour" assertions hold even under the
    # REPRO_SAN=1 leg (where the session installs the sanitizer's
    # factory); restore whatever was installed afterwards.
    previous = locks.current_factory()
    locks.reset_factory()
    yield
    locks.install_factory(previous)


def test_default_locks_are_working_threading_primitives():
    lock = locks.make_lock("test.lock")
    with lock:
        assert not lock.acquire(blocking=False)
    assert lock.acquire(blocking=False)
    lock.release()

    rlock = locks.make_rlock("test.rlock")
    with rlock:
        with rlock:  # re-entrant
            pass


def test_install_factory_swaps_future_constructions_only():
    class Recording:
        def __init__(self) -> None:
            self.names = []

        def make_lock(self, name):
            self.names.append(name)
            return threading.Lock()

        def make_rlock(self, name):
            self.names.append(name)
            return threading.RLock()

    before = locks.make_lock("pre-install")
    factory = Recording()
    previous = locks.install_factory(factory)
    try:
        assert locks.current_factory() is factory
        locks.make_lock("a")
        locks.make_rlock("b")
        assert factory.names == ["a", "b"]
        # The pre-install lock is untouched by the swap.
        with before:
            pass
    finally:
        locks.install_factory(previous)
    assert locks.current_factory() is previous


def test_reset_factory_restores_the_default():
    sentinel = object()
    locks.install_factory(sentinel)  # type: ignore[arg-type]
    locks.reset_factory()
    assert locks.current_factory() is not sentinel
    with locks.make_lock("after-reset"):
        pass
