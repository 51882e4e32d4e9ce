"""Experiment definitions: one entry point per paper table.

Every function returns a structured result that
:mod:`repro.bench.tables` renders in the paper's layout.  All parameters
scale with the dataset's ``t_max`` exactly as the paper's do at
``t_max = 150K``:

=================  ==================  =======================
paper parameter    full-scale value    expressed as
=================  ==================  =======================
query window       10K                 ``t_max / 15``
u (small)          2K                  ``t_max / 75``
u (medium)         10K                 ``t_max / 15``
u (large)          50K                 ``t_max / 3``
u (x-large)        75K                 ``t_max / 2``
index period       25K                 ``t_max / 6``
=================  ==================  =======================
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import List, Optional

from repro.bench.runner import BaseAccessBenchResult, ExperimentRunner
from repro.common.config import FabricConfig
from repro.common.errors import ConfigError
from repro.temporal.engine import QueryStats
from repro.temporal.intervals import TimeInterval
from repro.workload.datasets import ds1, ds2, ds3
from repro.workload.generator import WorkloadConfig, generate

#: The window positions of Table I: (i/15 .. (i+1)/15] of the timeline.
TABLE1_WINDOW_SLOTS = [0, 1, 2, 6, 7, 8, 12, 13, 14]

_DATASETS = {"ds1": ds1, "ds2": ds2, "ds3": ds3}


def dataset_config(
    name: str,
    scale: Optional[float] = None,
    entity_scale: Optional[float] = None,
) -> WorkloadConfig:
    """The scaled :class:`WorkloadConfig` for dataset ``name``."""
    try:
        factory = _DATASETS[name.lower()]
    except KeyError:
        raise ConfigError(
            f"unknown dataset {name!r}; expected one of {sorted(_DATASETS)}"
        ) from None
    return factory(scale=scale, entity_scale=entity_scale)


def query_fabric_config(statedb: Optional[str] = None) -> FabricConfig:
    """A :class:`FabricConfig` on the state-db backend ``statedb``
    (``None`` keeps the ``REPRO_STATEDB`` default)."""
    config = FabricConfig()
    if statedb is not None:
        config = dataclasses.replace(
            config,
            state_db=dataclasses.replace(config.state_db, backend=statedb),
        )
    return config


def u_small(t_max: int) -> int:
    """The paper's u=2K, expressed as a fraction of the timeline."""
    return t_max // 75  # 2K at full scale


def u_medium(t_max: int) -> int:
    """The paper's u=10K."""
    return t_max // 15  # 10K at full scale


def u_large(t_max: int) -> int:
    """The paper's u=50K."""
    return t_max // 3  # 50K at full scale


def u_xlarge(t_max: int) -> int:
    """The paper's u=75K."""
    return t_max // 2  # 75K at full scale


def table1_windows(t_max: int) -> List[TimeInterval]:
    """Table I's nine query windows, scaled to ``t_max``."""
    width = t_max // 15  # 10K at full scale
    return [TimeInterval(slot * width, (slot + 1) * width) for slot in TABLE1_WINDOW_SLOTS]


# --------------------------------------------------------------------------
# Table I - join performance: M1 vs TQF vs M2
# --------------------------------------------------------------------------


@dataclass
class Table1Row:
    window: TimeInterval
    m1: QueryStats
    tqf: QueryStats
    m2_small: QueryStats
    m2_large: Optional[QueryStats] = None


@dataclass
class Table1Result:
    dataset: str
    config: WorkloadConfig
    u_small: int
    u_large: Optional[int]
    rows: List[Table1Row] = field(default_factory=list)
    ingest_seconds: float = 0.0
    index_seconds: float = 0.0


def run_table1(
    dataset: str = "ds1",
    scale: Optional[float] = None,
    entity_scale: Optional[float] = None,
    verify_rows: bool = True,
    statedb: Optional[str] = None,
) -> Table1Result:
    """Regenerate one dataset's section of Table I.

    DS1 additionally gets the u=50K Model M2 column, as in the paper.
    ``verify_rows`` cross-checks that all models return identical join
    rows on every window (a correctness guard, excluded from timings).
    ``statedb`` runs the queries on an alternative state-db backend; it
    leaves the rows (and the verify assertion) untouched.
    """
    config = dataset_config(dataset, scale, entity_scale)
    data = generate(config)
    t_max = config.t_max
    small, large = u_small(t_max), u_large(t_max)
    include_large = dataset.lower() == "ds1"
    fabric_config = query_fabric_config(statedb)

    result = Table1Result(
        dataset=dataset.upper(),
        config=config,
        u_small=small,
        u_large=large if include_large else None,
    )
    with ExperimentRunner.build(
        data, "plain", fabric_config=fabric_config
    ) as plain, ExperimentRunner.build(
        data, "m2", m2_u=small, fabric_config=fabric_config
    ) as m2_small_runner:
        m2_large_runner = (
            ExperimentRunner.build(data, "m2", m2_u=large, fabric_config=fabric_config)
            if include_large
            else None
        )
        try:
            result.ingest_seconds = plain.ingest().seconds
            result.index_seconds = plain.build_m1_index(u=small).seconds
            m2_small_runner.ingest()
            if m2_large_runner is not None:
                m2_large_runner.ingest()

            for window in table1_windows(t_max):
                m1_result = plain.run_join("m1", window)
                tqf_result = plain.run_join("tqf", window)
                m2s_result = m2_small_runner.run_join("m2", window)
                m2l_result = (
                    m2_large_runner.run_join("m2", window)
                    if m2_large_runner is not None
                    else None
                )
                if verify_rows:
                    assert m1_result.rows == tqf_result.rows == m2s_result.rows, (
                        f"models disagree on {window}"
                    )
                    if m2l_result is not None:
                        assert m2l_result.rows == tqf_result.rows
                result.rows.append(
                    Table1Row(
                        window=window,
                        m1=m1_result.stats,
                        tqf=tqf_result.stats,
                        m2_small=m2s_result.stats,
                        m2_large=m2l_result.stats if m2l_result else None,
                    )
                )
        finally:
            if m2_large_runner is not None:
                m2_large_runner.close()
    return result


# --------------------------------------------------------------------------
# Table II - Model M1 join time vs u
# --------------------------------------------------------------------------


@dataclass
class Table2Row:
    u: int
    late_window: QueryStats  # (20K, 90K] at full scale
    early_window: QueryStats  # (0, 40K] at full scale


@dataclass
class Table2Result:
    config: WorkloadConfig
    late_window: TimeInterval
    early_window: TimeInterval
    rows: List[Table2Row] = field(default_factory=list)


def run_table2(
    scale: Optional[float] = None,
    entity_scale: Optional[float] = None,
    statedb: Optional[str] = None,
) -> Table2Result:
    """Table II: DS1, M1 indexes with u in {2K, 10K, 50K} (scaled)."""
    config = dataset_config("ds1", scale, entity_scale)
    data = generate(config)
    t_max = config.t_max
    fabric_config = query_fabric_config(statedb)
    late = TimeInterval(2 * t_max // 15, 9 * t_max // 15)
    early = TimeInterval(0, 4 * t_max // 15)
    result = Table2Result(config=config, late_window=late, early_window=early)
    for u in (u_small(t_max), u_medium(t_max), u_large(t_max)):
        with ExperimentRunner.build(
            data, "plain", fabric_config=fabric_config
        ) as runner:
            runner.ingest()
            runner.build_m1_index(u=u)
            result.rows.append(
                Table2Row(
                    u=u,
                    late_window=runner.run_join("m1", late).stats,
                    early_window=runner.run_join("m1", early).stats,
                )
            )
    return result


# --------------------------------------------------------------------------
# Table III - periodic index construction vs ingestion time
# --------------------------------------------------------------------------


@dataclass
class Table3Row:
    timestamp: int
    index_seconds: float
    ingest_seconds: float
    total_seconds: float


@dataclass
class Table3Result:
    config: WorkloadConfig
    u: int
    period: int
    rows: List[Table3Row] = field(default_factory=list)


def run_table3(
    scale: Optional[float] = None,
    entity_scale: Optional[float] = None,
    invocations: int = 6,
    statedb: Optional[str] = None,
) -> Table3Result:
    """Table III: DS1, M1 indexes built every 25K timestamps (scaled).

    Ingestion and indexing interleave: ingest ``(t-P, t]``, index
    ``(t-P, t]``, repeat.  Each invocation's GHFK scans start from the
    beginning of history, so index-construction time grows with every
    invocation -- the paper's scalability argument against Model M1.
    ``statedb`` as in :func:`run_table1`.
    """
    config = dataset_config("ds1", scale, entity_scale)
    data = generate(config)
    t_max = config.t_max
    period = t_max // invocations
    u = u_small(t_max)
    fabric_config = query_fabric_config(statedb)
    result = Table3Result(config=config, u=u, period=period)
    total = 0.0
    with ExperimentRunner.build(data, "plain", fabric_config=fabric_config) as runner:
        for invocation in range(1, invocations + 1):
            t1, t2 = (invocation - 1) * period, invocation * period
            ingest_report = runner.ingest(after=t1, until=t2)
            index_report = runner.build_m1_index(u=u, t1=t1, t2=t2)
            total += ingest_report.seconds + index_report.seconds
            result.rows.append(
                Table3Row(
                    timestamp=t2,
                    index_seconds=index_report.seconds,
                    ingest_seconds=ingest_report.seconds,
                    total_seconds=total,
                )
            )
    return result


# --------------------------------------------------------------------------
# Table IV - cost of accessing original states under Model M2
# --------------------------------------------------------------------------


@dataclass
class Table4Result:
    config: WorkloadConfig
    now: int
    rows: List[BaseAccessBenchResult] = field(default_factory=list)
    baseline: Optional[BaseAccessBenchResult] = None


def run_table4(
    scale: Optional[float] = None,
    entity_scale: Optional[float] = None,
    get_state_calls: Optional[int] = None,
    ghfk_calls: Optional[int] = None,
    now_factor: float = 1.02,
    statedb: Optional[str] = None,
) -> Table4Result:
    """Table IV: GetState-Base / GHFK-Base cost for u in {2K,10K,50K,75K}.

    ``now_factor`` places the probing clock slightly past ``t_max``; the
    paper's probe counts (329K probes for 100K calls at u=2K, shrinking to
    exactly 100K at u>=50K) imply its measurement ran at a logical "now"
    a couple of percent past the last event -- see EXPERIMENTS.md.
    ``statedb`` as in :func:`run_table1`.
    """
    config = dataset_config("ds1", scale, entity_scale)
    data = generate(config)
    t_max = config.t_max
    key_count = config.key_count
    # The paper issues 200 GetState-Base and 4 GHFK-Base calls per key
    # (100K and 2K over 500 keys); keep those per-key rates under scaling.
    if get_state_calls is None:
        get_state_calls = 200 * key_count
    if ghfk_calls is None:
        ghfk_calls = 4 * key_count
    now = int(t_max * now_factor)
    fabric_config = query_fabric_config(statedb)

    result = Table4Result(config=config, now=now)
    for u in (u_small(t_max), u_medium(t_max), u_large(t_max), u_xlarge(t_max)):
        with ExperimentRunner.build(
            data, "m2", m2_u=u, fabric_config=fabric_config
        ) as runner:
            runner.ingest()
            result.rows.append(
                runner.base_access_bench(
                    get_state_calls=get_state_calls,
                    ghfk_calls=ghfk_calls,
                    now=now,
                )
            )
    with ExperimentRunner.build(data, "plain", fabric_config=fabric_config) as plain:
        plain.ingest()
        result.baseline = plain.base_data_bench(
            get_state_calls=get_state_calls, ghfk_calls=ghfk_calls
        )
    return result
