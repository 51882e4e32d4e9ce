"""Unit tests for the resilience primitive, :class:`Deadline`.

Everything here runs on injected clocks: deadline expiry is asserted
exactly, never sampled from a wall clock.
"""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigError, DeadlineExceededError
from repro.common.resilience import Deadline
from tests.helpers import FakeClock


class TestDeadline:
    def test_expires_once_the_budget_has_elapsed(self):
        clock = FakeClock()
        deadline = Deadline.after(2.0, clock=clock)
        assert deadline.budget == 2.0
        clock.advance(1.5)
        assert not deadline.expired
        clock.advance(0.5)
        assert deadline.expired

    def test_check_raises_typed_error_with_context(self):
        clock = FakeClock()
        deadline = Deadline.after(1.0, clock=clock)
        deadline.check("warm-up")  # within budget: no raise
        clock.advance(1.0)
        with pytest.raises(DeadlineExceededError, match="per-key fetch"):
            deadline.check("per-key fetch")

    def test_nonpositive_budget_is_rejected(self):
        for bad in (0, -1.0):
            with pytest.raises(ConfigError):
                Deadline.after(bad)
