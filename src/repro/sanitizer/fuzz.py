"""Seeded schedule fuzzing: perturb interleavings at seam boundaries.

The default thread schedule under the GIL is depressingly repeatable:
most schedule-dependent bugs hide because the same interleaving runs
every time.  A :class:`FuzzSchedule` injects yields and microsecond
sleeps at the sanitizer's instrumentation points (lock acquire, shared
writes, task hand-offs), steering the scheduler somewhere new -- the
same idea as a seeded :class:`~repro.faults.plan.FaultPlan`, applied to
thread timing.

Determinism contract: every decision is drawn from a per-thread
``random.Random`` derived from ``(seed, thread registration order)``,
so a given seed produces the same *decision sequence* per thread.  (The
OS scheduler still has the final word -- the seed makes the
perturbation replayable, not the whole schedule.)  ``repro san --fuzz
N`` runs N rounds with seeds derived from the base seed, and the seed
lands in ``race-report.json`` so a failure replays from the manifest.
"""

from __future__ import annotations

import random
import time
from typing import Dict


def derive_seed(base: int, round_index: int) -> int:
    """The seed for fuzz round ``round_index`` (0 = the base seed)."""
    if round_index == 0:
        return base
    # splitmix-style scramble: consecutive rounds get unrelated streams.
    mixed = (base + round_index * 0x9E3779B97F4A7C15) & (2**64 - 1)
    mixed ^= mixed >> 31
    return mixed


class FuzzSchedule:
    """Per-thread seeded yield/sleep decisions at seam boundaries."""

    def __init__(
        self,
        seed: int,
        p_yield: float = 0.35,
        p_sleep: float = 0.08,
        max_sleep_us: int = 200,
    ) -> None:
        self.seed = seed
        self.p_yield = p_yield
        self.p_sleep = p_sleep
        self.max_sleep_us = max_sleep_us
        self._rngs: Dict[int, random.Random] = {}

    def _rng(self, tid: int) -> random.Random:
        rng = self._rngs.get(tid)
        if rng is None:
            # dict insert is atomic under the GIL; last writer wins is
            # fine because both compute the same stream for one tid.
            rng = random.Random((self.seed << 20) ^ tid)
            self._rngs[tid] = rng
        return rng

    def maybe_yield(self, tid: int) -> None:
        """Maybe cede the GIL (yield) or stall briefly (sleep)."""
        rng = self._rng(tid)
        draw = rng.random()
        if draw < self.p_sleep:
            time.sleep(rng.uniform(0.0, self.max_sleep_us) / 1_000_000.0)
        elif draw < self.p_sleep + self.p_yield:
            time.sleep(0)
