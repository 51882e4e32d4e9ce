"""The paper's Table II on counters: what a larger ``u`` buys Model M1.

One seeded workload indexed at ``u0``, ``4·u0`` and ``16·u0``.  For a
wide window the paper's cost units are exact functions of ``u``: one
GHFK call per (key, overlapping index interval), and one block
deserialized per *non-empty* overlapping bundle -- a GHFK on an interval
that holds no events finds no history and reads no block.  So GHFK calls
fall strictly with ``u`` while blocks can only fall or stay, and the
answer never changes.
"""

from __future__ import annotations

from typing import NamedTuple

import pytest

from repro.temporal.engine import JoinResult, TemporalQueryEngine
from repro.temporal.intervals import TimeInterval
from repro.temporal.keys import encode_interval_key
from tests.helpers import build_m1_index, build_plain_network, small_workload

U0 = 25
WINDOW = TimeInterval(130, 870)


def overlapping(u: int, t_max: int, window: TimeInterval):
    """The run's u-aligned intervals (last one clipped to ``t_max``) that
    overlap ``window``, by plain arithmetic."""
    pieces = [(start, min(start + u, t_max)) for start in range(0, t_max, u)]
    return [
        TimeInterval(start, end)
        for start, end in pieces
        if start < window.end and window.start < end
    ]


class Sweep(NamedTuple):
    """One ledger indexed at ``u``, queried over ``WINDOW`` on M1 and TQF."""

    u: int
    m1: JoinResult
    tqf: JoinResult
    #: keys x overlapping index intervals
    candidates: int
    #: candidates whose bundle exists in history
    non_empty: int


@pytest.fixture(scope="module")
def sweeps(tmp_path_factory):
    workload = small_workload()
    t_max = workload.config.t_max
    results = []
    for u in (U0, 4 * U0, 16 * U0):
        network = build_plain_network(tmp_path_factory.mktemp(f"u{u}"), workload)
        build_m1_index(network, t1=0, t2=t_max, u=u)
        engine = TemporalQueryEngine(network.ledger, network.metrics)
        m1 = engine.run_join("m1", WINDOW)
        tqf = engine.run_join("tqf", WINDOW)
        intervals = overlapping(u, t_max, WINDOW)
        keys = workload.shipments + workload.containers
        non_empty = sum(
            bool(
                network.ledger.history_db.locations_for_key(
                    encode_interval_key(key, interval)
                )
            )
            for key in keys
            for interval in intervals
        )
        results.append(Sweep(u, m1, tqf, len(keys) * len(intervals), non_empty))
        network.close()
    return results


def test_ghfk_calls_are_keys_times_overlapping_intervals(sweeps):
    for sweep in sweeps:
        assert sweep.m1.stats.ghfk_calls == sweep.candidates, sweep.u


def test_blocks_are_the_non_empty_overlapping_bundles(sweeps):
    for sweep in sweeps:
        assert sweep.m1.stats.blocks_deserialized == sweep.non_empty, sweep.u
    # Non-vacuous: at the finest u some overlapping intervals are empty,
    # and their GHFK calls cost no block.
    finest = sweeps[0]
    assert 0 < finest.non_empty < finest.candidates


def test_larger_u_means_strictly_fewer_calls_and_no_more_blocks(sweeps):
    calls = [sweep.m1.stats.ghfk_calls for sweep in sweeps]
    blocks = [sweep.m1.stats.blocks_deserialized for sweep in sweeps]
    assert calls[0] > calls[1] > calls[2] > 0
    assert blocks[0] >= blocks[1] >= blocks[2] > 0


def test_rows_equal_tqf_at_every_u(sweeps):
    reference = sweeps[0].tqf.rows
    assert reference
    for sweep in sweeps:
        assert sweep.tqf.rows == reference, sweep.u
        assert sweep.m1.rows == reference, sweep.u
