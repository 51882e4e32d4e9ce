"""Fixtures shared by the ``common`` tests."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.common import timeutils


@pytest.fixture
def clock(monkeypatch):
    """The stopwatch's clock, injected: ``clock.now`` is what
    ``perf_counter`` reads, so a timed block lasts as long as the test
    says and nothing sleeps."""
    clock = SimpleNamespace(now=100.0)
    monkeypatch.setattr(
        timeutils, "time", SimpleNamespace(perf_counter=lambda: clock.now)
    )
    return clock
