"""The per-query M1 plan: what it lists, what it refuses, what it costs.

``M1QueryEngine.plan(window)`` is the one implementation of "which
``(k, θ)`` does Model M1 visit": one read of the run list, a coverage
check, and ``O(Θ, τ)`` in temporal order.  The property tests drive it
over a stub ledger that holds nothing but a run list; the ledger tests
check what a query built on it returns (TQF's rows, or a typed error --
never a silently short answer) and that a whole ``run_join`` pays for
the run list once.
"""

from __future__ import annotations

from contextlib import closing

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import TemporalQueryError
from repro.fabric.network import FabricNetwork
from repro.temporal.chaincodes import M1IndexChaincode, SupplyChainChaincode
from repro.temporal.engine import TemporalQueryEngine
from repro.temporal.explain import QueryExplainer
from repro.temporal.intervals import FixedIntervalScheme, TimeInterval
from repro.temporal.keys import encode_interval_key
from repro.temporal.m1 import IndexingRun, M1QueryEngine, uncovered_stretches
from repro.workload import datasets
from repro.workload.generator import generate
from tests.helpers import build_m1_index, build_plain_network, fabric_config

T_MAX = 120


class RunListLedger:
    """All of a ledger that ``plan`` reads: the recorded run list."""

    def __init__(self, runs):
        self._stored = [run.to_value() for run in runs]
        self.reads = 0

    def get_state(self, key):
        assert key == M1IndexChaincode.META_KEY
        self.reads += 1
        return self._stored


@st.composite
def run_lists(draw):
    """Non-overlapping runs with mixed ``u`` and unaligned bounds, abutting
    or gapped, recorded in any order (a later run may fill a gap)."""
    bounds = sorted(draw(st.sets(st.integers(0, T_MAX), min_size=2, max_size=8)))
    runs = [
        IndexingRun(t1=t1, t2=t2, u=draw(st.integers(1, 25)))
        for t1, t2 in zip(bounds, bounds[1:])
        if draw(st.booleans())
    ]
    return draw(st.permutations(runs))


@st.composite
def windows(draw):
    start = draw(st.integers(0, T_MAX - 1))
    return TimeInterval(start, draw(st.integers(start + 1, T_MAX)))


def points(interval):
    return set(range(interval.start + 1, interval.end + 1))


@given(runs=run_lists(), window=windows())
def test_plan_is_the_indexers_partition_restricted_to_the_window(runs, window):
    engine = M1QueryEngine(RunListLedger(runs))
    indexed = set().union(*(points(run.window) for run in runs))
    missing = points(window) - indexed
    if missing:
        with pytest.raises(TemporalQueryError, match="beyond the indexed range") as raised:
            engine.plan(window)
        first = uncovered_stretches(runs, window)[0]
        assert first.start + 1 == min(missing)
        assert points(first) <= missing
        assert f"no indexing run covers {first}" in str(raised.value)
        return
    # Exactly the keys the indexer could have written, run by run ...
    written = [
        interval
        for run in sorted(runs, key=lambda run: run.t1)
        for interval in FixedIntervalScheme(run.u).partition_clipped(run.window)
        if interval.overlaps(window)
    ]
    plan = engine.plan(window)
    assert plan.window == window
    assert [planned.interval for planned in plan.intervals] == written
    # ... in temporal order, disjoint, covering the window ...
    assert written == sorted(written)
    assert points(window) <= set().union(*(points(i) for i in written))
    for planned in plan.intervals:
        # ... each spelled as the composite key's tail, and flagged for
        # the window filter iff it holds a timestamp outside the window.
        assert encode_interval_key("S1", planned.interval) == "S1" + planned.key_suffix
        assert planned.clipped == bool(points(planned.interval) - points(window))


@given(runs=run_lists(), window=windows())
def test_uncovered_stretches_are_exactly_the_unindexed_points(runs, window):
    gaps = uncovered_stretches(runs, window)
    indexed = set().union(*(points(run.window) for run in runs))
    assert gaps == sorted(gaps)
    assert set().union(*(points(gap) for gap in gaps)) == points(window) - indexed
    # Maximal stretches: no two of them abut.
    assert all(a.end < b.start for a, b in zip(gaps, gaps[1:]))


def test_plan_reads_the_run_list_once_and_fetch_reuses_it():
    ledger = RunListLedger([IndexingRun(0, 100, 10)])
    engine = M1QueryEngine(ledger)
    plan = engine.plan(TimeInterval(15, 40))
    assert ledger.reads == 1
    assert [str(p.interval) for p in plan.intervals] == ["(10-20]", "(20-30]", "(30-40]"]
    assert [p.clipped for p in plan.intervals] == [True, False, False]
    with pytest.raises(TemporalQueryError, match="cannot answer"):
        engine.fetch_events("S1", TimeInterval(15, 50), plan)
    assert ledger.reads == 1


# -- on a ledger ---------------------------------------------------------------

#: The reproduction from the issue: DS1 at ``t_max`` 3000, indexed over
#: ``(1000, 2000]`` and ``(2500, 3000]`` only.
GAPPED = datasets.ds1(scale=0.02, entity_scale=0.05, seed=11)
BEFORE_FIRST_RUN = TimeInterval(500, 1_500)
ACROSS_THE_GAP = TimeInterval(1_500, 3_000)


@pytest.fixture(scope="module")
def gapped(tmp_path_factory):
    network = build_plain_network(
        tmp_path_factory.mktemp("gapped-m1"), generate(GAPPED), strategy=GAPPED.ingestion
    )
    build_m1_index(network, t1=1_000, t2=2_000, u=200)
    build_m1_index(network, t1=2_500, t2=3_000, u=200)
    yield network
    network.close()


@pytest.fixture(scope="module")
def unindexed(tmp_path_factory):
    """The same chain with no indexing run at all."""
    network = build_plain_network(
        tmp_path_factory.mktemp("unindexed-m1"), generate(GAPPED), strategy=GAPPED.ingestion
    )
    yield network
    network.close()


def rows(network, model, window):
    result = TemporalQueryEngine(network.ledger, network.metrics).run_join(model, window)
    return sorted(result.rows), result


class TestUnindexedStretchIsNeverSilentlyShort:
    @pytest.mark.parametrize(
        "ledger, window, stretch",
        [
            ("gapped", BEFORE_FIRST_RUN, "(500-1000]"),
            ("gapped", ACROSS_THE_GAP, "(2000-2500]"),
            ("unindexed", BEFORE_FIRST_RUN, "(500-1500]"),
        ],
        ids=["before-first-run", "gap-between-runs", "no-run-at-all"],
    )
    def test_query_raises_naming_the_first_uncovered_stretch(
        self, ledger, window, stretch, request
    ):
        network = request.getfixturevalue(ledger)
        facade = TemporalQueryEngine(network.ledger, network.metrics)
        with pytest.raises(TemporalQueryError, match="no indexing run covers") as raised:
            facade.run_join("m1", window)
        assert stretch in str(raised.value)
        with pytest.raises(TemporalQueryError, match="no indexing run covers"):
            facade.engine("m1").fetch_events("S00000", window)
        with pytest.raises(TemporalQueryError, match="no indexing run covers"):
            QueryExplainer(network.ledger).explain_join("m1", window, ["S00000"])

    @pytest.mark.parametrize(
        "window, events, row_count",
        # (500, 1500] is the issue's reproduction: M1 used to answer 139
        # events / 48 rows from the half it had indexed.
        [(BEFORE_FIRST_RUN, 331, 139), (ACROSS_THE_GAP, 492, 190)],
        ids=["before-first-run", "gap-between-runs"],
    )
    def test_tqf_answers_where_m1_refuses(self, gapped, window, events, row_count):
        got, result = rows(gapped, "tqf", window)
        assert (result.stats.events_fetched, len(got)) == (events, row_count)
        with pytest.raises(TemporalQueryError, match="no indexing run covers"):
            rows(gapped, "m1", window)

    def test_a_window_inside_one_run_still_answers_on_m1(self, gapped):
        window = TimeInterval(1_100, 1_900)
        got = rows(gapped, "m1", window)[0]
        assert got == rows(gapped, "tqf", window)[0] and got


class TestRunsWithDifferentU:
    def test_a_window_exactly_tiled_by_two_abutting_runs_answers_on_m1(
        self, three_runs
    ):
        window = TimeInterval(330, 1_000)  # runs two and three, nothing else
        got = rows(three_runs, "m1", window)[0]
        assert got == rows(three_runs, "tqf", window)[0] and got

    @pytest.mark.parametrize(
        "window",
        [
            TimeInterval(250, 400),    # straddles 330
            TimeInterval(329, 331),    # one tick either side of 330
            TimeInterval(540, 700),    # straddles 610
            TimeInterval(609, 611),
            TimeInterval(300, 650),    # straddles both
            TimeInterval(0, 1_000),
        ],
        ids=str,
    )
    def test_rows_equal_tqfs_across_every_run_boundary(self, three_runs, window):
        got = rows(three_runs, "m1", window)[0]
        assert got == rows(three_runs, "tqf", window)[0]


class TestOneRunListReadPerQuery:
    @pytest.mark.parametrize(
        "ledger, window, keys",
        [("three_runs", TimeInterval(0, 250), 9), ("gapped", TimeInterval(1_200, 1_800), 25)],
    )
    def test_run_join_reads_state_once_whatever_the_key_count(
        self, ledger, window, keys, request
    ):
        stats = rows(request.getfixturevalue(ledger), "m1", window)[1].stats
        assert stats.keys_queried == keys
        assert stats.get_state_calls == 1
        assert stats.ghfk_calls == keys * 3  # three planned intervals each

    def test_no_keys_no_state_read_no_error(self, tmp_path):
        """An empty ledger answers nothing without consulting the index,
        even over a window no run covers."""
        with closing(FabricNetwork(tmp_path, config=fabric_config())) as network:
            network.install(SupplyChainChaincode())
            network.install(M1IndexChaincode())
            got, result = rows(network, "m1", TimeInterval(0, 100))
        assert got == [] and result.stats.keys_queried == 0
        assert result.stats.get_state_calls == 0
