"""Event-time samplers: uniform and zipf (Section IV-2).

DS1/DS3 draw load times uniformly over ``(0, t_max]``.  DS2 draws them
zipf-distributed: "for each key, the zipf parameter is chosen randomly
between 0 and 1", which skews events toward the start of the timeline
(the paper observes "more than half the events occur within interval
(0-10K]" for DS1's geometry).

The zipf sampler discretizes the timeline into ranked buckets with
probability proportional to ``1 / rank**a`` (rank 1 = earliest bucket),
then samples uniformly inside the chosen bucket.
"""

from __future__ import annotations

import bisect
import random
from abc import ABC, abstractmethod
from typing import List

from repro.common.errors import WorkloadError


class TimeSampler(ABC):
    """Draws logical timestamps in ``1..t_max``."""

    def __init__(self, rng: random.Random, t_max: int) -> None:
        if t_max < 1:
            raise WorkloadError(f"t_max must be >= 1, got {t_max}")
        self._rng = rng
        self.t_max = t_max

    @abstractmethod
    def sample(self) -> int:
        """One timestamp in ``[1, t_max]``."""


class UniformSampler(TimeSampler):
    """Uniform over ``[1, t_max]``."""

    def sample(self) -> int:
        return self._rng.randint(1, self.t_max)


class ZipfSampler(TimeSampler):
    """Zipf-ranked bucket sampler with exponent ``a`` in ``[0, 1]``.

    ``a = 0`` degenerates to uniform; ``a = 1`` is strongly front-loaded.
    """

    #: Number of timeline buckets the rank distribution is defined over.
    BUCKETS = 512

    def __init__(self, rng: random.Random, t_max: int, a: float) -> None:
        super().__init__(rng, t_max)
        if not 0.0 <= a <= 1.0:
            raise WorkloadError(f"zipf exponent must be in [0, 1], got {a}")
        self.a = a
        bucket_count = min(self.BUCKETS, t_max)
        weights = [1.0 / (rank**a) for rank in range(1, bucket_count + 1)]
        self._cumulative: List[float] = []
        total = 0.0
        for weight in weights:
            total += weight
            self._cumulative.append(total)
        self._total = total
        self._bucket_count = bucket_count

    def sample(self) -> int:
        point = self._rng.random() * self._total
        bucket = bisect.bisect_left(self._cumulative, point)
        bucket = min(bucket, self._bucket_count - 1)
        low = bucket * self.t_max // self._bucket_count + 1
        high = (bucket + 1) * self.t_max // self._bucket_count
        if high < low:
            high = low
        return self._rng.randint(low, high)


def make_sampler(
    distribution: str, rng: random.Random, t_max: int
) -> TimeSampler:
    """Build the sampler for one key.

    For ``zipf`` the exponent is drawn fresh per call, matching the paper's
    per-key random parameter.
    """
    if distribution == "uniform":
        return UniformSampler(rng, t_max)
    if distribution == "zipf":
        return ZipfSampler(rng, t_max, a=rng.random())
    raise WorkloadError(
        f"unknown distribution {distribution!r}; expected 'uniform' or 'zipf'"
    )
