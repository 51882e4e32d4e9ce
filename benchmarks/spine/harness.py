"""The operation catalogue every workload runs, with its oracle.

Closed loop, one client, one thread: each operation starts when the
previous one has returned.  A *round* runs every operation in
:data:`OPS` once (short ones a few times); every timed call yields one
sample of its end-to-end metric.  The first round is warm-up and is
discarded.  All correctness checks run outside the timed regions and
feed ``attempted`` / ``failed``.

Only the stable core API of ``repro`` is used here -- nothing from
``repro.bench`` or ``repro.cli``.  Table I/II/III geometry is restated
locally (:class:`Geometry`).
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import random
import resource
import shutil
import statistics
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.common.config import (
    BlockStoreConfig,
    CommitConfig,
    FabricConfig,
    QueryConfig,
    StateDbConfig,
)
from repro.common.metrics import MetricsRegistry
from repro.fabric.network import FabricNetwork
from repro.temporal.chaincodes import (
    M1IndexChaincode,
    M2SupplyChainChaincode,
    SupplyChainChaincode,
)
from repro.temporal.engine import JoinResult, TemporalQueryEngine
from repro.temporal.intervals import TimeInterval
from repro.temporal.m1 import M1Indexer
from repro.temporal.m2 import BaseAccessAPI
from repro.workload import datasets
from repro.workload.generator import WorkloadData, generate
from repro.workload.ingest import ingest

from spec import SMOKE_SCALE, Scenario

#: Table I window slots: window ``i`` is ``(i w, (i+1) w]`` with ``w = t_max // 15``.
TABLE1_SLOTS = (0, 1, 2, 6, 7, 8, 12, 13, 14)
#: Table III: the indexing process runs this many times over the timeline.
INDEX_ROUNDS = 6

#: (operation, timed repetitions per round).  Short operations repeat so
#: that every metric collects enough samples for a steady median.
OPS: Tuple[Tuple[str, int], ...] = (
    ("tqf_sweep", 1),
    ("m2_sweep", 1),
    ("m1_sweep", 2),
    ("m1_wide", 3),
    ("get_state_base", 2),
    ("ghfk_base", 2),
    ("reopen", 5),
    ("ingest", 2),
    ("m2_ingest", 2),
    ("index_build", 1),
)

PLAIN, M2 = "plain", "m2"


@dataclass(frozen=True)
class Geometry:
    """The paper's query/index geometry at this dataset's ``t_max``."""

    t_max: int
    u: int
    windows: Tuple[TimeInterval, ...]
    wide: Tuple[TimeInterval, ...]
    period: int
    now: int

    @staticmethod
    def of(t_max: int) -> "Geometry":
        width = t_max // 15
        return Geometry(
            t_max=t_max,
            u=t_max // 75,
            windows=tuple(
                TimeInterval(slot * width, (slot + 1) * width) for slot in TABLE1_SLOTS
            ),
            wide=(
                TimeInterval(2 * t_max // 15, 9 * t_max // 15),
                TimeInterval(0, 4 * t_max // 15),
            ),
            period=t_max // INDEX_ROUNDS,
            now=int(1.02 * t_max),
        )


def fabric_config(scenario: Scenario) -> FabricConfig:
    """Library defaults, spelled out, except the LevelDB stand-in state-db.

    The ``memory`` default would make the state-db layer vanish; the
    block store keeps its defaults *including the default codec*, so a
    change that moves a default is measured.  Flush policy: ``flush`` on
    both stores.  Workers stay 1 and the block cache off: the paper's
    cost model.
    """
    state = StateDbConfig(backend="lsm", durability="flush")
    if scenario.memtable_limit is not None:
        state = dataclasses.replace(state, memtable_limit=scenario.memtable_limit)
    return FabricConfig(
        state_db=state,
        block_store=BlockStoreConfig(),
        query=QueryConfig(workers=1, ghfk_prefetch=1),
        commit=CommitConfig(workers=1, pipeline=False),
    )


def rows_digest(result: JoinResult) -> str:
    """SHA-256 over a query's join rows, in row order."""
    hasher = hashlib.sha256()
    for row in result.rows:
        hasher.update(
            f"{row.shipment}|{row.truck}|{row.container}|"
            f"{row.interval.start}|{row.interval.end}\n".encode()
        )
    return hasher.hexdigest()


@dataclass
class Tally:
    """Operations attempted and failed; an exception *or* a failed check fails."""

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    @contextmanager
    def guard(self, what: str) -> Iterator[None]:
        """Operation boundary: record the traceback and keep the run going."""
        try:
            yield
        except Exception:  # noqa: BLE001 - benchmark boundary, reported below
            self.attempted += 1
            self.failed += 1
            self.failures.append(f"{what}: {traceback.format_exc(limit=4)}")


class SpeedProbe:
    """A fixed standard-library kernel timed right before and after every sample.

    The sandbox's CPU does not run at one speed: a neighbour on the same
    physical core slows *all* code by up to 1.8x for seconds to minutes at
    a time, so raw wall seconds of identical work spread by 30% between
    runs.  Each sample is therefore scaled by ``REFERENCE_S / probe
    seconds``: reported seconds are seconds at the reference speed.  The
    kernel touches nothing of ``repro`` (JSON decode, small objects, JSON
    encode -- the instruction mix of a block read), so no change to the
    program can move it.  Raw medians are kept in the record beside the
    normalised ones.
    """

    #: The kernel's time on the builder's host running undisturbed.
    REFERENCE_S = 0.0065
    ITERATIONS = 40

    def __init__(self) -> None:
        self._payload = json.dumps({
            "header": {"number": 7, "previous_hash": "ab" * 32},
            "transactions": [
                {"tx_id": "x" * 32, "timestamp": tx, "signature": "s" * 44,
                 "writes": [{"key": f"S{w:05d}", "is_delete": False,
                             "value": {"o": "C00001", "t": w, "e": "l"}} for w in range(6)]}
                for tx in range(10)
            ],
        })

    def __call__(self) -> float:
        payload = self._payload
        start = perf_counter()
        for _ in range(self.ITERATIONS):
            block = json.loads(payload)
            materialised = [
                (tx["tx_id"], {w["key"]: (w["value"], w["is_delete"]) for w in tx["writes"]})
                for tx in block["transactions"]
            ]
            json.dumps(block)
        del materialised
        return perf_counter() - start


class Timer:
    """One timed region: ``seconds`` at reference speed, ``raw`` as the clock read."""

    seconds = 0.0
    raw = 0.0

    def add(self, part: "Timer") -> None:
        self.seconds += part.seconds
        self.raw += part.raw


class World:
    """One workload's data and ledgers, plus the operations over them."""

    def __init__(
        self,
        scenario: Scenario,
        seed: int,
        workdir: Path,
        smoke: bool = False,
    ) -> None:
        self.scenario = scenario
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        #: A ``trace.Recorder`` while a traced run records, else ``None``.
        self.tracer: Any = None
        self.config = fabric_config(scenario)
        #: One registry for every ledger of the workload, so one snapshot
        #: diff around a timed region sees all of its counters.
        self.metrics = MetricsRegistry()
        self.tally = Tally()
        self.samples: Dict[str, List[float]] = {}
        self.raw_samples: Dict[str, List[float]] = {}
        self.probe = SpeedProbe()
        self._last_probe: Optional[float] = None
        #: Registry counter deltas summed over the current round's timed regions.
        self.round_counters: Dict[str, int] = {}
        self._dirs = 0
        self._last: Dict[str, Any] = {}
        self._reference: Dict[TimeInterval, str] = {}

        scale = min(scenario.scale, SMOKE_SCALE) if smoke else scenario.scale
        factory = getattr(datasets, scenario.dataset)
        self.workload = factory(
            scale=scale, entity_scale=scenario.entity_scale, seed=seed
        )
        self.get_state_calls = 300 if smoke else scenario.get_state_calls
        self.ghfk_calls = 4 if smoke else scenario.ghfk_calls
        self.data: Optional[WorkloadData] = None
        self.plain: Optional[FabricNetwork] = None
        self.m2: Optional[FabricNetwork] = None

    # -- set-up ---------------------------------------------------------------

    def build(self) -> None:
        """Generate and build both primary ledgers; one ``setup_s`` sample.

        Each phase is its own timed region, so a CPU speed change during
        set-up is scaled where it happens.
        """
        total = Timer()
        for index, phase in enumerate(
            (self._generate, self._build_plain, self._build_m2)
        ):
            with self.timed("setup", chain=index > 0) as timer:
                phase()
            total.add(timer)
        self._bind_engines()
        self._sample("setup_s", total)

    def _generate(self) -> None:
        self.data = generate(self.workload)
        self.geometry = Geometry.of(self.workload.t_max)
        period = self.geometry.period
        self.slices = [
            [e for e in self.data.events if i * period < e.time <= (i + 1) * period]
            for i in range(INDEX_ROUNDS)
        ]
        self.keys = self.data.shipments + self.data.containers
        rng = random.Random(self.seed)
        # GetState-Base is asked "as of" a clock drawn per call from the
        # second half of the timeline up to the paper's 1.02 t_max: at one
        # fixed clock the probes per call -- and so the metric -- depend on
        # where each of a few dozen keys' last event fell, and spread by
        # 14% between seeds.  GHFK-Base keeps the fixed clock.
        t_max, now = self.geometry.t_max, self.geometry.now
        self.get_state_queries = [
            (rng.choice(self.keys), rng.randint(t_max // 2, now))
            for _ in range(self.get_state_calls)
        ]
        self.ghfk_keys = [rng.choice(self.keys) for _ in range(self.ghfk_calls)]

    def _build_plain(self) -> None:
        assert self.data is not None
        self.plain_path = self._fresh_dir()
        self.plain = self._open(self.plain_path, PLAIN)
        if self.scenario.periodic_index:
            self._ingest_and_index_periodically(self.plain)
        else:
            self._ingest(self.plain, PLAIN, self.data.events)
            self._indexer(self.plain).run(0, self.geometry.t_max, self.geometry.u)

    def _build_m2(self) -> None:
        assert self.data is not None
        self.m2_path = self._fresh_dir()
        self.m2 = self._open(self.m2_path, M2)
        self._ingest(self.m2, M2, self.data.events)

    def _fresh_dir(self) -> Path:
        self._dirs += 1
        return self.workdir / f"ledger-{self._dirs}"

    def _open(self, path: Path, variant: str) -> FabricNetwork:
        network = FabricNetwork(path, config=self.config, metrics=self.metrics)
        self._install(network, variant)
        return network

    def _install(self, network: FabricNetwork, variant: str) -> None:
        if variant == PLAIN:
            network.install(SupplyChainChaincode())
            network.install(M1IndexChaincode())
        else:
            network.install(M2SupplyChainChaincode(u=self.geometry.u))

    def _ingest(self, network: FabricNetwork, variant: str, events: list) -> None:
        chaincode = SupplyChainChaincode.name if variant == PLAIN else M2SupplyChainChaincode.name
        ingest(network.gateway("ingestor"), events, chaincode, strategy=self.workload.ingestion)

    def _indexer(self, network: FabricNetwork) -> M1Indexer:
        return M1Indexer(
            ledger=network.ledger,
            gateway=network.gateway("indexer"),
            key_prefixes=["S", "C"],
            metrics=self.metrics,
        )

    def _ingest_and_index_periodically(
        self, network: FabricNetwork, op: Optional[str] = None
    ) -> Timer:
        """Table III: ingest ``(t-P, t]`` then index ``(t-P, t]``, six times.

        With ``op`` every index invocation is a timed region of that
        operation and is checked; the returned timer holds their sum.
        """
        indexer = self._indexer(network)
        period, u = self.geometry.period, self.geometry.u
        total = Timer()
        for i, events in enumerate(self.slices):
            self._ingest(network, PLAIN, events)
            if op is None:
                indexer.run(i * period, (i + 1) * period, u)
                continue
            with self.timed(op) as timer:
                report = indexer.run(i * period, (i + 1) * period, u)
            total.add(timer)
            self.tally.check(
                report.indexes_written > 0, f"index invocation {report.run} wrote nothing"
            )
        return total

    def _bind_engines(self) -> None:
        assert self.plain is not None and self.m2 is not None
        self.plain_engine = TemporalQueryEngine(self.plain.ledger, self.metrics, workers=1)
        self.m2_engine = TemporalQueryEngine(self.m2.ledger, self.metrics, workers=1)
        self.base_api = BaseAccessAPI(self.m2.ledger, u=self.geometry.u, metrics=self.metrics)

    def check_setup(self) -> None:
        """Oracle on the freshly built ledgers (untimed)."""
        assert self.plain is not None and self.m2 is not None
        with self.tally.guard("set-up verification"):
            self.plain.ledger.verify_chain()
            self.m2.ledger.verify_chain()
            sample = self.keys[:1000]
            now = self.geometry.now
            same = all(
                self.base_api.get_state_base(key, now).value == self.plain.ledger.get_state(key)
                for key in sample
            )
            self.tally.check(same, "GetState-Base values differ from the plain ledger's get_state")

    def close(self) -> None:
        for network in (self.plain, self.m2):
            if network is not None:
                network.close()
        self.plain = self.m2 = None

    def ledger_bytes_per_event(self) -> float:
        network = self.m2 if self.scenario.bytes_ledger == M2 else self.plain
        assert network is not None and self.data is not None
        return network.ledger.block_store.total_bytes() / len(self.data.events)

    def describe(self) -> Dict[str, Any]:
        """Sizes of what was built, stated in the output rather than hidden."""
        assert self.plain is not None and self.m2 is not None and self.data is not None
        store = getattr(self.m2.ledger.state_db, "_store", None)  # report only
        return {
            "dataset": dataclasses.asdict(self.workload),
            "events": len(self.data.events),
            "keys": len(self.keys),
            "u": self.geometry.u,
            "plain_blocks": self.plain.ledger.height,
            "m2_blocks": self.m2.ledger.height,
            "m2_states": self.m2.ledger.state_db.state_count(),
            "m2_sstables": getattr(store, "sstable_count", None),
            "get_state_calls_per_batch": self.get_state_calls,
            "ghfk_calls_per_batch": self.ghfk_calls,
        }

    # -- timed regions ----------------------------------------------------------

    @contextmanager
    def timed(self, op: str, chain: bool = False) -> Iterator[Timer]:
        """Time one sample between two speed probes.

        ``chain`` reuses the previous region's closing probe as this one's
        opening probe (back-to-back sub-samples of one operation).  With a
        tracer, spans and registry counters are recorded for the region too.
        """
        timer = Timer()
        if chain and self._last_probe is not None:
            before_probe = self._last_probe
        else:
            gc.collect()
            before_probe = self.probe()
        tracer = self.tracer
        if tracer is not None:
            counters_before = self.metrics.snapshot()
            tracer.begin_region(op)
        start = perf_counter()
        try:
            yield timer
        finally:
            timer.raw = perf_counter() - start
            if tracer is not None:
                tracer.pause()
                delta = self.metrics.snapshot().diff(counters_before)
                for name, amount in delta.counters.items():
                    self.round_counters[name] = self.round_counters.get(name, 0) + amount
            self._last_probe = self.probe()
            speed = SpeedProbe.REFERENCE_S / ((before_probe + self._last_probe) / 2)
            timer.seconds = timer.raw * speed
            if tracer is not None:
                tracer.scale_region(speed)

    def _sample(self, metric: str, timer: Timer, per: float = 1.0, inverse: float = 0.0) -> None:
        """Record ``timer * per`` -- or ``inverse / timer`` for a rate."""
        for store, seconds in ((self.samples, timer.seconds), (self.raw_samples, timer.raw)):
            value = inverse / seconds if inverse else seconds * per
            store.setdefault(metric, []).append(value)

    def _repeats(self, key: str, value: Any, what: str) -> None:
        """Check that ``value`` equals what the previous repetition saw."""
        previous = self._last.setdefault(key, value)
        self.tally.check(previous == value, f"{what}: {value!r} != previous {previous!r}")

    # -- operations --------------------------------------------------------------

    def run_round(self) -> None:
        self.round_counters = {}
        for op, repetitions in OPS:
            for _ in range(1 if self.smoke else repetitions):
                with self.tally.guard(op):
                    getattr(self, "op_" + op)()

    def _reference_digest(self, window: TimeInterval) -> str:
        """TQF's row digest for ``window`` (computed once, untimed)."""
        digest = self._reference.get(window)
        if digest is None:
            digest = rows_digest(self.plain_engine.run_join("tqf", window))
            self._reference[window] = digest
        return digest

    def _sweep(self, op: str, model: str, windows: Sequence[TimeInterval]) -> None:
        engine = self.m2_engine if model == "m2" else self.plain_engine
        results = []
        total = Timer()
        for index, window in enumerate(windows):
            # One region per query, so a speed change mid-sweep is scaled
            # where it happens.
            with self.timed(op, chain=index > 0) as timer:
                results.append(engine.run_join(model, window))
            total.add(timer)
        self._sample(op + "_s", total)
        for window, result in zip(windows, results):
            digest = rows_digest(result)
            if model == "tqf":
                self._reference.setdefault(window, digest)
            self.tally.check(
                digest == self._reference_digest(window),
                f"{model} rows differ from TQF's on {window}",
            )
        self.tally.check(any(r.rows for r in results), f"{op}: every window returned no rows")
        self._repeats(
            op,
            (sum(r.stats.ghfk_calls for r in results),
             sum(r.stats.blocks_deserialized for r in results)),
            f"{op} (ghfk_calls, blocks_deserialized)",
        )

    def op_tqf_sweep(self) -> None:
        self._sweep("tqf_sweep", "tqf", self.geometry.windows)

    def op_m1_sweep(self) -> None:
        self._sweep("m1_sweep", "m1", self.geometry.windows)

    def op_m2_sweep(self) -> None:
        self._sweep("m2_sweep", "m2", self.geometry.windows)

    def op_m1_wide(self) -> None:
        self._sweep("m1_wide", "m1", self.geometry.wide)

    def _batch_span(self, name: str):
        """Root span of one base-access batch (the benchmark's own span)."""
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def op_get_state_base(self) -> None:
        api = self.base_api
        probes = 0
        with self.timed("get_state_base") as timer, self._batch_span("m2_base.get_state_batch"):
            for key, now in self.get_state_queries:
                probes += api.get_state_base(key, now).probes
        self._sample("get_state_base_us", timer, per=1e6 / len(self.get_state_queries))
        self._repeats("get_state_base", probes, "GetState-Base probes per batch")

    def op_ghfk_base(self) -> None:
        api, now = self.base_api, self.geometry.now
        entries = 0
        with self.timed("ghfk_base") as timer, self._batch_span("m2_base.ghfk_batch"):
            for key in self.ghfk_keys:
                for _entry in api.ghfk_base(key, now):
                    entries += 1
        self._sample("ghfk_base_ms", timer, per=1e3 / len(self.ghfk_keys))
        self.tally.check(entries > 0, "GHFK-Base returned no history")
        self._repeats("ghfk_base", entries, "GHFK-Base entries per batch")

    def op_reopen(self) -> None:
        assert self.m2 is not None
        before = (self.m2.ledger.height, self.m2.ledger.state_fingerprint())
        with self.timed("reopen") as timer:
            self.m2.close()
            self.m2 = FabricNetwork(self.m2_path, config=self.config, metrics=self.metrics)
        self._sample("reopen_s", timer)
        self._install(self.m2, M2)
        self._bind_engines()
        after = (self.m2.ledger.height, self.m2.ledger.state_fingerprint())
        self.tally.check(before == after, f"reopen changed (height, fingerprint): {before} -> {after}")

    def _fresh_ingest(self, op: str, variant: str) -> None:
        assert self.data is not None
        path = self._fresh_dir()
        network = self._open(path, variant)
        try:
            with self.timed(op) as timer:
                self._ingest(network, variant, self.data.events)
            self._sample(op + "_events_per_s", timer, inverse=len(self.data.events))
            network.ledger.verify_chain()
            self._repeats(op, network.ledger.state_fingerprint(), f"{op} state fingerprint")
        finally:
            network.close()
            shutil.rmtree(path, ignore_errors=True)

    def op_ingest(self) -> None:
        self._fresh_ingest("ingest", PLAIN)

    def op_m2_ingest(self) -> None:
        self._fresh_ingest("m2_ingest", M2)

    def op_index_build(self) -> None:
        path = self._fresh_dir()
        network = self._open(path, PLAIN)
        try:
            self._sample("index_build_s", self._ingest_and_index_periodically(network, "index_build"))
            # Same events as the primary ledger, so TQF's rows there are the reference.
            engine = TemporalQueryEngine(network.ledger, self.metrics, workers=1)
            last = self.geometry.windows[-1]
            self.tally.check(
                rows_digest(engine.run_join("m1", last)) == self._reference_digest(last),
                f"index_build: M1 rows differ from TQF's on {last}",
            )
        finally:
            network.close()
            shutil.rmtree(path, ignore_errors=True)


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports kilobytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def summarize(values: Sequence[float]) -> Dict[str, float]:
    ordered = sorted(values)
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = ordered[0]
    return {
        "n": len(ordered),
        "median": statistics.median(ordered),
        "q1": q1,
        "q3": q3,
        "min": ordered[0],
        "max": ordered[-1],
    }


def run_rounds(
    world: World,
    seconds: float,
    min_rounds: int,
    after_round: Optional[Callable[[], None]] = None,
) -> int:
    """Run rounds until the time box is used up; returns how many ran.

    A further round starts only while it is expected to finish inside
    the box, but never fewer than ``min_rounds`` run.
    """
    start = perf_counter()
    rounds = 0
    while True:
        round_start = perf_counter()
        world.run_round()
        rounds += 1
        if after_round is not None:
            after_round()
        now = perf_counter()
        if rounds >= min_rounds and (now - start) + (now - round_start) > seconds:
            return rounds
