"""Resilience primitive: time budgets.

:class:`Deadline` is a monotonic time budget created once at an API
boundary and threaded through the call chain.  Anything that might
block checks it (and raises the typed
:class:`~repro.common.errors.DeadlineExceededError`) instead of letting
one slow disk read stall a query forever.

The clock is injected: production uses ``time.monotonic``, tests pass
fakes so no deadline test ever waits on a wall clock.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.common.errors import ConfigError, DeadlineExceededError

__all__ = ["Deadline"]


class Deadline:
    """A monotonic time budget threaded through a call chain.

    Create one at the boundary with :meth:`after` and pass it down;
    anything that might block calls :meth:`check` first.  The clock is
    injectable so tests can expire a deadline without sleeping.
    """

    __slots__ = ("budget", "_expires_at", "_clock")

    def __init__(
        self, budget: float, expires_at: float, clock: Callable[[], float]
    ) -> None:
        """Hold what :meth:`after` computed; build deadlines with it."""
        self.budget = budget
        self._expires_at = expires_at
        self._clock = clock

    @classmethod
    def after(
        cls, seconds: float, clock: Callable[[], float] = time.monotonic
    ) -> "Deadline":
        """A deadline ``seconds`` from now on ``clock``."""
        if seconds <= 0:
            raise ConfigError(f"deadline budget must be positive, got {seconds}")
        return cls(seconds, clock() + seconds, clock)

    @property
    def expired(self) -> bool:
        return self._clock() >= self._expires_at

    def check(self, what: str = "operation") -> None:
        """Raise :class:`DeadlineExceededError` if the budget ran out."""
        if self.expired:
            raise DeadlineExceededError(
                f"{what} abandoned: deadline of {self.budget:g}s exceeded"
            )
