"""Unit tests for the resilience primitives.

Everything here runs on injected clocks: the delay schedules and
deadline expiry are asserted exactly, never sampled from a wall clock.
"""

from __future__ import annotations

import itertools

import pytest

from repro.common.errors import ConfigError, DeadlineExceededError
from repro.common.resilience import Deadline, RetryPolicy
from tests.helpers import FakeClock


# -- RetryPolicy -----------------------------------------------------------


class TestRetryPolicy:
    def test_delays_are_capped_exponential_without_jitter(self):
        policy = RetryPolicy(max_retries=5, base=0.1, cap=0.5)
        assert list(itertools.islice(policy.delays(), 5)) == [
            0.1, 0.2, 0.4, 0.5, 0.5
        ]

    def test_jittered_delays_are_deterministic_per_seed(self):
        first = RetryPolicy(base=0.1, cap=10.0, jitter=0.5, seed=42)
        second = RetryPolicy(base=0.1, cap=10.0, jitter=0.5, seed=42)
        other = RetryPolicy(base=0.1, cap=10.0, jitter=0.5, seed=43)
        a = list(itertools.islice(first.delays(), 8))
        b = list(itertools.islice(second.delays(), 8))
        c = list(itertools.islice(other.delays(), 8))
        assert a == b
        assert a != c
        # Jitter spreads by at most +/- jitter * delay.
        for delay, bare in zip(a, [min(10.0, 0.1 * 2 ** n) for n in range(8)]):
            assert 0.5 * bare <= delay <= 1.5 * bare

    def test_each_delays_call_restarts_the_schedule(self):
        policy = RetryPolicy(jitter=0.3, seed=7)
        assert next(policy.delays()) == next(policy.delays())

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"base": -0.1},
            {"cap": -1.0},
            {"jitter": 1.0},
            {"jitter": -0.2},
        ],
    )
    def test_invalid_parameters_are_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            RetryPolicy(**kwargs)


# -- Deadline --------------------------------------------------------------


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
