"""Interval algebra for temporal queries and indexes.

The paper writes every interval as ``(t1, t2]`` -- *exclusive* start,
*inclusive* end -- e.g. query windows ``(10K, 20K]`` and index intervals
``(0, 2K], (2K, 4K], ...``.  :class:`TimeInterval` implements exactly that
convention, and :class:`FixedIntervalScheme` implements the paper's
fixed-length-``u`` indexing intervals: a timestamp ``t`` belongs to
``(⌊t/u⌋·u, ⌈t/u⌉·u]`` (with the boundary case ``t = k·u`` landing in
``((k-1)·u, k·u]``, the only reading under which the intervals partition
the timeline).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

from repro.common.errors import TemporalQueryError
from repro.common.timeutils import Timestamp


@dataclass(frozen=True, order=True)
class TimeInterval:
    """A half-open-on-the-left interval ``(start, end]`` of logical time."""

    start: Timestamp
    end: Timestamp

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < 0:
            raise TemporalQueryError(
                f"interval bounds must be non-negative: ({self.start}, {self.end}]"
            )
        if self.end <= self.start:
            raise TemporalQueryError(
                f"interval must be non-empty: ({self.start}, {self.end}]"
            )

    def contains(self, timestamp: Timestamp) -> bool:
        """True when ``start < timestamp <= end``."""
        return self.start < timestamp <= self.end

    def overlaps(self, other: "TimeInterval") -> bool:
        """True when the two ``(start, end]`` intervals share any point."""
        return self.start < other.end and other.start < self.end

    def intersection(self, other: "TimeInterval") -> "TimeInterval | None":
        """The shared sub-interval, or ``None`` when disjoint."""
        start = max(self.start, other.start)
        end = min(self.end, other.end)
        if end <= start:
            return None
        return TimeInterval(start, end)

    def __str__(self) -> str:
        return f"({self.start}-{self.end}]"


class FixedIntervalScheme:
    """Fixed-length index intervals of size ``u`` aligned to multiples of ``u``.

    The strategy both models use in the paper (Sections VI-3 and VII):
    partition time into ``(0, u], (u, 2u], ...``.
    """

    def __init__(self, u: int) -> None:
        if u <= 0:
            raise TemporalQueryError(f"interval length u must be positive, got {u}")
        self.u = u

    def bounds_for(self, timestamp: Timestamp) -> Tuple[int, int]:
        """``(start, end)`` of the index interval containing ``timestamp``,
        as integers: what a loop spelling one key per interval steps from.

        ``timestamp`` must be ``> 0``: under the paper's ``(start, end]``
        convention no interval contains 0, so an event stamped exactly at
        ``t = 0`` is unindexable -- M2 ingestion and the M1 rewrite both
        surface this as a typed :class:`TemporalQueryError` instead of
        silently mis-bucketing it (a naive ``t // u`` would file both
        ``t = 0`` and every ``t = k·u`` boundary one interval too late).
        """
        if timestamp <= 0:
            raise TemporalQueryError(
                f"timestamp {timestamp} has no (start, end] index interval: "
                "logical time starts at 1 under the paper's exclusive-start "
                "convention. Shift event timestamps to t >= 1 before "
                "ingesting (e.g. stamp the first event at 1, not 0)"
            )
        bucket = (timestamp + self.u - 1) // self.u  # ceil(t / u)
        return (bucket - 1) * self.u, bucket * self.u

    def iter_intervals_overlapping(
        self, window: TimeInterval
    ) -> Iterator[TimeInterval]:
        """Lazily yield the index intervals overlapping ``window``."""
        first_bucket = window.start // self.u  # interval containing start+1
        start = first_bucket * self.u
        while start < window.end:
            yield TimeInterval(start, start + self.u)
            start += self.u

    def partition_clipped(self, window: TimeInterval) -> List[TimeInterval]:
        """Disjoint u-aligned intervals covering ``window``, with the first
        and last clipped to the window bounds.

        The M1 indexing process uses this when an indexing period is not a
        multiple of ``u`` (the paper's Table III indexes every 25K
        timestamps with u=2K): interior intervals stay aligned, boundary
        intervals shrink to fit the run's range, so consecutive runs never
        index the same timestamp twice.
        """
        return [
            clipped
            for interval in self.iter_intervals_overlapping(window)
            if (clipped := interval.intersection(window)) is not None
        ]
