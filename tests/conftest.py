"""Shared pytest fixtures, the hypothesis profile and the hang watchdog.

Two things make a run a function of the code alone.  Every hypothesis
test runs under the one ``repro`` profile: no wall-clock deadline or
slow-generation health check, and examples derived from the test
function instead of a fresh seed, so two runs execute the same examples.
And a test that runs longer than the ``faulthandler_timeout`` ini value
ends the run: every thread's stack goes to ``hang-dump.txt`` (in the
invocation directory; CI uploads it) and the process exits non-zero
instead of idling to the job timeout.
"""

from __future__ import annotations

import faulthandler
import os
from pathlib import Path
from typing import IO, Generator, Tuple

import pytest
from hypothesis import HealthCheck, settings

from repro.common.metrics import MetricsRegistry

settings.register_profile(
    "repro",
    deadline=None,
    derandomize=True,
    max_examples=100,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")

#: ``(timeout, open dump file)`` while the hang watchdog is configured.
_HANG_WATCHDOG = pytest.StashKey[Tuple[float, IO[str]]]()


@pytest.fixture
def metrics() -> MetricsRegistry:
    return MetricsRegistry()


def pytest_configure(config: pytest.Config) -> None:
    """Open the hang dump."""
    timeout = float(config.getini("faulthandler_timeout") or 0.0)
    if timeout > 0:
        # Appended, never truncated: the next run must not erase a hang's evidence.
        dump = open(Path("hang-dump.txt").resolve(), "a")
        config.stash[_HANG_WATCHDOG] = (timeout, dump)


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_setup(item: pytest.Item) -> None:
    """Arm the watchdog for this test.  pytest armed its own dump-only
    timer when the test's protocol began; this call replaces it."""
    watchdog = item.config.stash.get(_HANG_WATCHDOG, None)
    if watchdog is not None:
        timeout, dump = watchdog
        faulthandler.dump_traceback_later(timeout, exit=True, file=dump)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_teardown(item: pytest.Item) -> Generator[None, object, object]:
    try:
        return (yield)
    finally:
        faulthandler.cancel_dump_traceback_later()


def pytest_unconfigure(config: pytest.Config) -> None:
    """Close the hang dump; a run that never hung leaves no file."""
    watchdog = config.stash.get(_HANG_WATCHDOG, None)
    if watchdog is not None:
        _, dump = watchdog
        dump.close()
        try:
            if os.path.getsize(dump.name) == 0:
                os.remove(dump.name)
        except FileNotFoundError:
            # A concurrent run in this directory finished first and
            # removed the empty file the two of them had open.
            pass

