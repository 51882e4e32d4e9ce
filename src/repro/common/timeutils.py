"""Logical timestamps and wall-clock measurement helpers.

The paper expresses event times as *logical timestamps* in ``0..t_max``
(e.g. ``t_max = 150K`` for DS1).  The simulator keeps that convention:
events, index intervals and query windows are all expressed in logical
time, while performance is measured in wall-clock seconds via
:class:`Stopwatch`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

#: Logical timestamps are plain non-negative integers.
Timestamp = int


@dataclass
class Stopwatch:
    """Accumulating wall-clock stopwatch: :meth:`start` / :meth:`stop`.
    ``elapsed`` is the total across all completed intervals.
    """

    elapsed: float = 0.0
    _started_at: float | None = field(default=None, repr=False)

    def start(self) -> "Stopwatch":
        if self._started_at is not None:
            raise RuntimeError("Stopwatch is already running")
        self._started_at = time.perf_counter()
        return self

    def stop(self) -> float:
        """Stop the watch and return the total elapsed seconds."""
        if self._started_at is None:
            raise RuntimeError("Stopwatch is not running")
        self.elapsed += time.perf_counter() - self._started_at
        self._started_at = None
        return self.elapsed


def format_duration(seconds: float) -> str:
    """Render a duration the way the paper's tables do (``7m13s``, ``3.8s``).

    Sub-minute durations keep one decimal; longer durations use ``XmYs``.
    """
    if seconds < 0:
        raise ValueError(f"duration must be non-negative, got {seconds}")
    if seconds < 60:
        return f"{seconds:.2f}s" if seconds < 10 else f"{seconds:.1f}s"
    minutes, rem = divmod(int(round(seconds)), 60)
    return f"{minutes}m{rem}s"
