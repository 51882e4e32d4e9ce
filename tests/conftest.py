"""Shared pytest fixtures and the opt-in sanitizer session mode.

``REPRO_SAN=1`` runs the whole test session inside one dynamic race
sanitizer session: every lock built through the
:mod:`repro.common.locks` seam is traced, every ``@sanitize_shared``
class's attribute traffic feeds the happens-before/lockset engine, and
at session end the combined race report is written (default
``race-report.json``; override with ``REPRO_SAN_REPORT``).  Any race
turns a green test run red -- this is the CI leg that catches
interleaving bugs the assertions themselves never look for.

``REPRO_SEED`` seeds the session (recorded in the report) so a failing
run replays.

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

_SAN_ENABLED = os.environ.get("REPRO_SAN") == "1"

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
    """Open the hang dump; start the session-wide sanitizer when
    ``REPRO_SAN=1``."""
    timeout = float(config.getini("faulthandler_timeout") or 0.0)
    if timeout > 0:
        # Appended, never truncated: the next run must not erase a hang's evidence.
        dump = open(Path("hang-dump.txt").resolve(), "a")
        config.stash[_HANG_WATCHDOG] = (timeout, dump)
    if not _SAN_ENABLED:
        return
    from repro.common.config import repro_seed
    from repro.sanitizer import runtime

    runtime.enable(seed=repro_seed(0))


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


def pytest_sessionfinish(session: pytest.Session, exitstatus: int) -> None:
    """Write the race report and fail the session on any race."""
    if not _SAN_ENABLED:
        return
    from repro.sanitizer import runtime

    sanitizer = runtime.active()
    if sanitizer is None:
        # A test left the session disabled (the lifecycle tests manage
        # their own sessions and restore ours; if one failed mid-way
        # there is nothing to report).
        return
    runtime.disable()
    report = sanitizer.build_report(source="pytest", workers=1)
    report.save(os.environ.get("REPRO_SAN_REPORT", "race-report.json"))
    if not report.ok:
        print()
        print(report.render())
        session.exitstatus = 1
