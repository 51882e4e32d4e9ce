"""Seeded property tests for the ``(start, end]`` interval algebra.

A replayable randomized sweep (``REPRO_SEED`` selects the sequence, the
default matches CI) over overlaps/intersection/partition and the
scheme's walk and listing laws, with the adversarial cases -- single-point
windows, sub-``u`` windows, and ``k·u ± 1`` boundaries -- exercised
against the point-wise membership oracle.
"""

from __future__ import annotations

import random

import pytest

from repro.common.config import repro_seed
from repro.temporal.intervals import FixedIntervalScheme, TimeInterval
from repro.temporal.keys import decode_interval_key
from repro.temporal.m2 import walk_back

ROUNDS = 200
T_MAX = 400


@pytest.fixture(scope="module")
def rng():
    """The module's replayable generator; export ``REPRO_SEED`` to replay."""
    return random.Random(repro_seed(0xA1_60_BA))


def random_interval(rng, t_max=T_MAX):
    start = rng.randrange(0, t_max)
    return TimeInterval(start, rng.randrange(start + 1, t_max + 1))


def points(interval):
    return set(range(interval.start + 1, interval.end + 1))


class TestIntervalAlgebra:
    def test_contains_matches_the_point_set(self, rng):
        for _ in range(ROUNDS):
            interval = random_interval(rng)
            member = points(interval)
            for t in (interval.start, interval.start + 1, interval.end,
                      interval.end + 1, rng.randrange(0, T_MAX + 2)):
                assert interval.contains(t) == (t in member), (str(interval), t)

    def test_overlaps_is_symmetric_and_point_wise(self, rng):
        for _ in range(ROUNDS):
            a, b = random_interval(rng), random_interval(rng)
            expected = bool(points(a) & points(b))
            assert a.overlaps(b) == expected, (str(a), str(b))
            assert b.overlaps(a) == expected, (str(a), str(b))

    def test_intersection_is_exactly_the_common_points(self, rng):
        for _ in range(ROUNDS):
            a, b = random_interval(rng), random_interval(rng)
            common = points(a) & points(b)
            got = a.intersection(b)
            assert got == b.intersection(a)
            if not common:
                assert got is None, (str(a), str(b))
            else:
                assert got is not None and points(got) == common

    def test_single_point_windows(self, rng):
        for _ in range(ROUNDS // 4):
            start = rng.randrange(0, T_MAX)
            window = TimeInterval(start, start + 1)
            assert points(window) == {start + 1}
            assert window.overlaps(TimeInterval(start, start + 1))
            if start > 0:
                assert not window.overlaps(TimeInterval(start - 1, start))


class TestSchemePartitionProperties:
    def _schemes(self, rng):
        u = rng.choice((1, 2, 3, 5, 7, 16, 100))
        yield u, FixedIntervalScheme(u)

    def _windows(self, rng, u):
        yield random_interval(rng)
        k = rng.randrange(1, 5)
        # The k·u ± 1 boundary straddles and a sub-u window.
        yield TimeInterval(max(0, k * u - 1), k * u + 1)
        yield TimeInterval(k * u, k * u + 1)
        yield TimeInterval(k * u, (k + 2) * u)

    def test_partition_covers_aligned_windows_exactly(self, rng):
        for _ in range(ROUNDS // 8):
            for u, scheme in self._schemes(rng):
                k = rng.randrange(0, 4)
                window = TimeInterval(k * u, (k + rng.randrange(1, 5)) * u)
                tiles = scheme.partition_clipped(window)
                assert tiles[0].start == window.start
                assert tiles[-1].end == window.end
                for left, right in zip(tiles, tiles[1:]):
                    assert left.end == right.start
                for tile in tiles:
                    assert tile.start % u == 0 and tile.end - tile.start == u

    def test_partition_clipped_tiles_the_window_exactly(self, rng):
        for _ in range(ROUNDS // 8):
            for u, scheme in self._schemes(rng):
                for window in self._windows(rng, u):
                    tiles = scheme.partition_clipped(window)
                    assert tiles[0].start == window.start
                    assert tiles[-1].end == window.end
                    for left, right in zip(tiles, tiles[1:]):
                        assert left.end == right.start
                    covered = set()
                    for tile in tiles:
                        assert not covered & points(tile), str(window)
                        covered |= points(tile)
                    assert covered == points(window), str(window)

    def test_interval_for_agrees_with_partition_membership(self, rng):
        for _ in range(ROUNDS // 8):
            for u, scheme in self._schemes(rng):
                k = rng.randrange(0, 4)
                window = TimeInterval(k * u, (k + rng.randrange(1, 5)) * u)
                tiles = scheme.partition_clipped(window)
                for t in sorted(points(window))[:: max(1, u // 2)]:
                    home = TimeInterval(*scheme.bounds_for(t))
                    assert home in tiles, (str(window), t)
                    assert home.contains(t)

    def test_get_state_base_walk(self, rng):
        # M2's GetState-Base probe loop spells every interval down to the
        # timeline start: from the interval of t it must visit ceil(t/u)
        # adjacent aligned intervals, each strictly earlier, and then stop
        # -- or stop at the first state found.
        for _ in range(ROUNDS // 8):
            for u, scheme in self._schemes(rng):
                for t in (1, u, u + 1, rng.randrange(1, 6 * u + 1)):
                    probed = []  # every probe misses: list.append returns None
                    assert walk_back(probed.append, scheme, "k", t) == (None, -(-t // u))
                    walk = [decode_interval_key(key) for key in probed]
                    assert walk[0] == ("k", TimeInterval(*scheme.bounds_for(t)))
                    assert walk[-1][1].start == 0
                    for (_, later), (_, earlier) in zip(walk, walk[1:]):
                        assert earlier.end == later.start, (u, t)
                    for _, tile in walk:
                        assert tile.start % u == 0 and tile.end - tile.start == u
                    hit = rng.randrange(len(probed))
                    found = walk_back(
                        {probed[hit]: "state"}.get, scheme, "k", t
                    )
                    assert found == ("state", hit + 1), (u, t)

    def test_intervals_overlapping_lists_interval_for_of_every_point(self, rng):
        for _ in range(ROUNDS // 8):
            for u, scheme in self._schemes(rng):
                for window in self._windows(rng, u):
                    homes = []
                    for t in sorted(points(window)):
                        home = TimeInterval(*scheme.bounds_for(t))
                        if not homes or homes[-1] != home:
                            homes.append(home)
                    assert list(scheme.iter_intervals_overlapping(window)) == homes, (
                        u, str(window)
                    )
