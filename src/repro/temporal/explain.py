"""EXPLAIN for temporal queries: predict costs without running them.

The history index already knows where every key's writes live, so the
block-deserialization cost of a fetch can be *predicted exactly* for the
index models (and bounded for TQF) before touching a single block file.
Its only callers are tests; ROADMAP item 2 (``repro query [--analyze]``)
is the CLI reader that would set each prediction beside the measured
counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.common.errors import TemporalQueryError
from repro.common.metrics import NULL_REGISTRY, MetricsRegistry
from repro.fabric.ledger import Ledger
from repro.temporal.intervals import TimeInterval
from repro.temporal.keys import encode_interval_key
from repro.temporal.m1 import M1QueryEngine, M1QueryPlan
from repro.temporal.m2 import M2QueryEngine


@dataclass
class FetchPlan:
    """Predicted cost of one per-key event fetch."""

    model: str
    key: str
    window: TimeInterval
    #: Index intervals the engine would visit (empty for TQF).
    intervals: List[TimeInterval] = field(default_factory=list)
    #: GHFK calls the engine would issue.
    ghfk_calls: int = 0
    #: Exact block deserializations for m1/m2; an upper bound for tqf
    #: (the history index does not record timestamps, so TQF's early
    #: termination point is unknown without reading blocks).
    blocks: int = 0
    blocks_exact: bool = True

    def render(self) -> str:
        bound = "" if self.blocks_exact else " (upper bound)"
        return (
            f"{self.model} fetch {self.key} over {self.window}: "
            f"{self.ghfk_calls} GHFK calls, {self.blocks} blocks{bound}"
        )


class QueryExplainer:
    """Builds :class:`FetchPlan`s from the history index."""

    def __init__(self, ledger: Ledger, metrics: MetricsRegistry = NULL_REGISTRY) -> None:
        self._ledger = ledger
        self._m1 = M1QueryEngine(ledger, metrics=metrics)
        self._m2 = M2QueryEngine(ledger, metrics=metrics)

    def explain_fetch(self, model: str, key: str, window: TimeInterval) -> FetchPlan:
        """The plan for fetching ``key``'s events in ``window`` on ``model``."""
        return self.explain_join(model, window, [key])[0]

    def _explain_tqf(self, key: str, window: TimeInterval) -> FetchPlan:
        # One GHFK; it deserializes at most every block holding the key
        # (exactly those up to the window's end, unknowable from the index).
        return FetchPlan(
            model="tqf",
            key=key,
            window=window,
            ghfk_calls=1,
            blocks=self._ledger.history_db.block_count_for_key(key),
            blocks_exact=False,
        )

    def _explain_m1(self, key: str, plan: M1QueryPlan) -> FetchPlan:
        intervals = [planned.interval for planned in plan.intervals]
        # Each non-empty bundle costs exactly the one block holding its
        # write; empty candidates cost a GHFK call but zero blocks.
        blocks = 0
        for interval in intervals:
            locations = self._ledger.history_db.locations_for_key(
                encode_interval_key(key, interval)
            )
            if locations:
                blocks += 1
        return FetchPlan(
            model="m1",
            key=key,
            window=plan.window,
            intervals=intervals,
            ghfk_calls=len(intervals),
            blocks=blocks,
        )

    def _explain_m2(self, key: str, window: TimeInterval) -> FetchPlan:
        intervals = self._m2.overlapping_intervals(key, window)
        blocks = 0
        for interval in intervals:
            locations = self._ledger.history_db.locations_for_key(
                encode_interval_key(key, interval)
            )
            blocks += len({block for block, _, _ in locations})
        # When the window ends mid-interval the engine's early termination
        # may skip that last interval's tail blocks, so the prediction is
        # an upper bound there.
        exact = not intervals or window.end >= intervals[-1].end
        return FetchPlan(
            model="m2",
            key=key,
            window=window,
            intervals=intervals,
            ghfk_calls=len(intervals),
            blocks=blocks,
            blocks_exact=exact,
        )

    def explain_join(
        self, model: str, window: TimeInterval, keys: List[str]
    ) -> List[FetchPlan]:
        """Plans for every key a join over ``window`` would fetch.

        For M1 the query's own :meth:`M1QueryEngine.plan` is resolved once
        for all keys, as ``run_join`` does -- only when there is a key --
        and raises what it raises.
        """
        if model == "tqf":
            return [self._explain_tqf(key, window) for key in keys]
        if model == "m1":
            if not keys:
                return []
            plan = self._m1.plan(window)
            return [self._explain_m1(key, plan) for key in keys]
        if model == "m2":
            return [self._explain_m2(key, window) for key in keys]
        raise TemporalQueryError(f"unknown model {model!r}")
