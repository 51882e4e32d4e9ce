"""Traced lock primitives: events, inertness, self-deadlock promotion."""

from __future__ import annotations

import threading

import pytest

from repro.common.errors import SanitizerError
from repro.sanitizer import runtime
from repro.sanitizer.locks import TracedLock, TracedRLock


def _requires_no_session() -> None:
    """Skip under the ``REPRO_SAN=1`` leg, where a session is always on."""
    if runtime.active() is not None:
        pytest.skip("needs no active sanitizer session (REPRO_SAN leg)")


def test_traced_lock_is_inert_without_a_session():
    _requires_no_session()
    lock = TracedLock("t")
    with lock:
        assert lock.locked()
    assert not lock.locked()


def test_traced_lock_promotes_self_deadlock_to_error():
    lock = TracedLock("t")
    with runtime.sanitized():
        with lock:
            with pytest.raises(SanitizerError, match="re-acquired"):
                lock.acquire()
    # The refused re-acquire must not corrupt the hold count: the one
    # real release (the with-exit above) fully frees the lock.
    assert not lock.locked()


def test_traced_lock_self_deadlock_only_raises_for_the_holder():
    # A *different* thread blocking on a held lock is normal contention,
    # not a self-deadlock; it must block and then proceed.
    lock = TracedLock("t")
    acquired_by_thread = []
    with runtime.sanitized():
        lock.acquire()

        def contend() -> None:
            lock.acquire()
            acquired_by_thread.append(True)
            lock.release()

        thread = threading.Thread(target=contend)
        thread.start()
        lock.release()
        thread.join()
    assert acquired_by_thread == [True]


def test_traced_rlock_is_reentrant():
    lock = TracedRLock("r")
    with runtime.sanitized():
        with lock:
            with lock:
                pass
        with lock:
            pass


def test_nested_sessions_shadow_and_restore():
    with runtime.sanitized() as outer:
        assert runtime.active() is outer
        with runtime.sanitized() as inner:
            assert runtime.active() is inner
        assert runtime.active() is outer
