"""Resilience primitives: bounded retries and time budgets.

* :class:`RetryPolicy` -- bounded exponential backoff with *seeded*
  jitter.  The delay schedule is a pure function of the policy's
  parameters and seed, so a retry test replays bit-for-bit; the
  gateway's MVCC retry loop follows it.
* :class:`Deadline` -- a monotonic time budget created once at an API
  boundary and threaded through the call chain.  Anything that might
  block checks it (and raises the typed
  :class:`~repro.common.errors.DeadlineExceededError`) instead of
  letting one slow disk read stall a query forever.

Clocks and sleeps are injected: production uses ``time.monotonic`` /
``time.sleep``, tests pass counters and fakes so no resilience test ever
waits on a wall clock.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Iterator

from repro.common.errors import ConfigError, DeadlineExceededError

__all__ = ["RetryPolicy", "Deadline"]


class RetryPolicy:
    """Bounded exponential backoff with seeded, deterministic jitter.

    Attempt ``n`` (0-based) sleeps ``min(cap, base * 2**n)``, then the
    jitter fraction spreads that by up to ``+/- jitter * delay`` using a
    :class:`random.Random` seeded at construction -- two policies built
    with the same parameters produce byte-identical delay sequences, so
    backoff behaviour is testable and replayable, never timing-flaky.
    """

    def __init__(
        self,
        max_retries: int = 0,
        base: float = 0.01,
        cap: float = 0.5,
        jitter: float = 0.0,
        seed: int = 0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if max_retries < 0:
            raise ConfigError(f"max_retries must be non-negative, got {max_retries}")
        if base < 0 or cap < 0:
            raise ConfigError("backoff base and cap must be non-negative")
        if not 0.0 <= jitter < 1.0:
            raise ConfigError(f"jitter must be in [0, 1), got {jitter}")
        self.max_retries = max_retries
        self.base = base
        self.cap = cap
        self.jitter = jitter
        self.seed = seed
        self._sleep = sleep

    def delays(self) -> Iterator[float]:
        """The (infinite) delay schedule; deterministic for a given seed.

        Each call returns a fresh iterator starting from the seed, so
        every retried operation sees the same schedule.
        """
        rng = random.Random(self.seed)
        attempt = 0
        while True:
            delay = min(self.cap, self.base * (2 ** attempt))
            if self.jitter:
                delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
            yield max(0.0, delay)
            attempt += 1

    def sleep(self, seconds: float) -> None:
        """Sleep through the injected sleeper (never call while holding
        a lock -- CONC003 polices exactly that)."""
        if seconds > 0:
            self._sleep(seconds)


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
