"""Build-ingest-query runner used by every experiment.

An :class:`ExperimentRunner` owns one generated workload and one ledger
built from it in a chosen *variant*:

* ``plain`` -- original keys; serves TQF queries and hosts Model M1
  indexes built afterwards or periodically.
* ``m2`` -- keys transformed at ingestion by the Model M2 chaincode with a
  given interval length ``u``.

The runner wires the real network (endorser, orderer, validator), the
workload ingestion strategies and the query facade, so every measured
number comes out of the same pipeline the tests validate.
"""

from __future__ import annotations

import random
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

from repro.common.config import FabricConfig
from repro.common.errors import ConfigError
from repro.common.timeutils import Stopwatch
from repro.fabric.network import FabricNetwork
from repro.temporal.chaincodes import (
    M1IndexChaincode,
    M2SupplyChainChaincode,
    SupplyChainChaincode,
)
from repro.temporal.engine import JoinResult, TemporalQueryEngine
from repro.temporal.intervals import TimeInterval
from repro.temporal.m1 import IndexingReport, M1Indexer
from repro.temporal.m2 import BaseAccessAPI
from repro.workload.generator import WorkloadConfig, WorkloadData, generate
from repro.workload.ingest import IngestionReport, ingest


@dataclass
class BaseAccessBenchResult:
    """Timing of emulated base accesses (Table IV rows)."""

    u: int
    get_state_calls: int
    get_state_probes: int
    get_state_seconds: float
    ghfk_calls: int
    ghfk_seconds: float


class ExperimentRunner:
    """One dataset x one ledger variant, ready to ingest and query."""

    def __init__(
        self,
        data: WorkloadData,
        network: FabricNetwork,
        variant: str,
        m2_u: Optional[int] = None,
        workdir: Optional[Path] = None,
        owns_workdir: bool = False,
    ) -> None:
        self.data = data
        self.network = network
        self.variant = variant
        self.m2_u = m2_u
        self._workdir = workdir
        self._owns_workdir = owns_workdir
        self.facade = TemporalQueryEngine(network.ledger, network.metrics)
        self.ingestion_report: Optional[IngestionReport] = None
        self.indexing_reports: List[IndexingReport] = []

    # -- construction ---------------------------------------------------------

    @classmethod
    def build(
        cls,
        workload: WorkloadConfig | WorkloadData,
        variant: str = "plain",
        m2_u: Optional[int] = None,
        path: Optional[Path] = None,
        fabric_config: Optional[FabricConfig] = None,
    ) -> "ExperimentRunner":
        """Create the network for ``workload`` (not yet ingested).

        Args:
            workload: a config (generated here) or pre-generated data, so
                several variants can share one generation pass.
            variant: ``"plain"`` or ``"m2"``.
            m2_u: index interval length, required for the ``m2`` variant.
            path: ledger directory; a temporary one is created (and later
                removed by :meth:`close`) when omitted.
        """
        if variant not in ("plain", "m2"):
            raise ConfigError(f"unknown variant {variant!r}")
        if variant == "m2" and not m2_u:
            raise ConfigError("the m2 variant requires m2_u")
        data = workload if isinstance(workload, WorkloadData) else generate(workload)
        owns_workdir = path is None
        workdir = Path(tempfile.mkdtemp(prefix="repro-bench-")) if path is None else Path(path)
        network = FabricNetwork(workdir, config=fabric_config)
        if variant == "plain":
            network.install(SupplyChainChaincode())
            network.install(M1IndexChaincode())
        else:
            network.install(M2SupplyChainChaincode(u=m2_u))
        return cls(
            data=data,
            network=network,
            variant=variant,
            m2_u=m2_u,
            workdir=workdir,
            owns_workdir=owns_workdir,
        )

    # -- ingestion & indexing ----------------------------------------------------

    @property
    def chaincode_name(self) -> str:
        if self.variant == "plain":
            return SupplyChainChaincode.name
        return M2SupplyChainChaincode.name

    def ingest(self, until: Optional[int] = None, after: int = 0) -> IngestionReport:
        """Ingest the workload's events with the dataset's strategy.

        ``after``/``until`` bound the event times ``(after, until]`` so
        Table III can interleave ingestion with periodic indexing.
        """
        events = [
            event
            for event in self.data.events
            if event.time > after and (until is None or event.time <= until)
        ]
        report = ingest(
            self.network.gateway("ingestor"),
            events,
            self.chaincode_name,
            strategy=self.data.config.ingestion,
        )
        self.ingestion_report = report
        return report

    def build_m1_index(
        self, u: int, t1: int = 0, t2: Optional[int] = None
    ) -> IndexingReport:
        """Run the Model M1 indexing process over ``(t1, t2]``."""
        if self.variant != "plain":
            raise ConfigError("M1 indexes are built on the plain variant only")
        t2 = self.data.config.t_max if t2 is None else t2
        indexer = M1Indexer(
            ledger=self.network.ledger,
            gateway=self.network.gateway("indexer"),
            key_prefixes=[
                self.facade.namespace.shipment_prefix,
                self.facade.namespace.container_prefix,
            ],
            metrics=self.network.metrics,
        )
        report = indexer.run(t1, t2, u)
        self.indexing_reports.append(report)
        return report

    # -- queries -----------------------------------------------------------------

    def run_join(self, model: str, window: TimeInterval) -> JoinResult:
        return self.facade.run_join(model, window)

    def base_access_bench(
        self,
        get_state_calls: int,
        ghfk_calls: int,
        now: Optional[int] = None,
        seed: int = 5,
    ) -> BaseAccessBenchResult:
        """Time random GetState-Base / GHFK-Base calls (Table IV).

        Keys are drawn uniformly from shipments+containers, as in the
        paper ("for each call, the key k is chosen randomly").
        """
        if self.variant != "m2":
            raise ConfigError("base_access_bench requires the m2 variant")
        assert self.m2_u is not None
        api = BaseAccessAPI(self.network.ledger, u=self.m2_u, metrics=self.network.metrics)
        rng = random.Random(seed)
        keys = self.data.shipments + self.data.containers
        now = self.data.config.t_max if now is None else now

        probes = 0
        watch = Stopwatch().start()
        for _ in range(get_state_calls):
            probes += api.get_state_base(rng.choice(keys), now).probes
        get_state_seconds = watch.stop()

        watch = Stopwatch().start()
        for _ in range(ghfk_calls):
            for _entry in api.ghfk_base(rng.choice(keys), now):
                pass
        ghfk_seconds = watch.stop()

        return BaseAccessBenchResult(
            u=self.m2_u,
            get_state_calls=get_state_calls,
            get_state_probes=probes,
            get_state_seconds=get_state_seconds,
            ghfk_calls=ghfk_calls,
            ghfk_seconds=ghfk_seconds,
        )

    def base_data_bench(
        self, get_state_calls: int, ghfk_calls: int, seed: int = 5
    ) -> BaseAccessBenchResult:
        """The comparison row of Table IV: plain GetState / GHFK on base
        data (requires the plain variant)."""
        if self.variant != "plain":
            raise ConfigError("base_data_bench requires the plain variant")
        rng = random.Random(seed)
        keys = self.data.shipments + self.data.containers
        ledger = self.network.ledger

        watch = Stopwatch().start()
        for _ in range(get_state_calls):
            ledger.get_state(rng.choice(keys))
        get_state_seconds = watch.stop()

        watch = Stopwatch().start()
        for _ in range(ghfk_calls):
            for _entry in ledger.get_history_for_key(rng.choice(keys)):
                pass
        ghfk_seconds = watch.stop()

        return BaseAccessBenchResult(
            u=0,
            get_state_calls=get_state_calls,
            get_state_probes=get_state_calls,
            get_state_seconds=get_state_seconds,
            ghfk_calls=ghfk_calls,
            ghfk_seconds=ghfk_seconds,
        )

    # -- bookkeeping ---------------------------------------------------------------

    def state_count(self) -> int:
        return self.network.ledger.state_db.state_count()

    def close(self) -> None:
        self.network.close()
        if self._owns_workdir and self._workdir is not None:
            shutil.rmtree(self._workdir, ignore_errors=True)

    def __enter__(self) -> "ExperimentRunner":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
