"""The chaos soak: concurrent traffic under a seeded fault schedule.

The kill-point sweep (:mod:`tests.faults.harness`) proves recovery from
*one* crash at *one* point.  The soak asks the harder operational
question: does the whole stack stay honest while faults keep arriving
during live traffic?  One run:

1. builds a fault-free **reference** ledger from the full workload and
   records, per block height, the header hash and the join-query rows --
   the ground truth every later check compares against;
2. replays the same workload into a **live** directory across several
   rounds, each with one armed fault (a commit-path crash, a silent
   SSTable bit flip, an intermittent ``EIO`` read fault, or injected
   read latency) while a query thread runs TQF and degraded-mode M1
   joins against the same ledger;
3. after every round, reopens the directory on the real filesystem and
   checks the invariants: hash chain verifies and is byte-identical to
   the reference prefix, no acknowledged transaction was lost, the
   audit and doctor are clean, a scrub finds nothing left to
   quarantine, and both query models return exactly the reference rows
   (M1 via a typed :class:`~repro.temporal.engine.DegradedResult`);
4. a final fault-free round completes the workload and additionally
   requires the full chain and the state fingerprint to match the
   reference bit-for-bit.

Every parameter of the schedule is drawn up front from one seed, so a
failing soak replays identically.  Queries during a round are classified
-- ``ok`` / ``degraded`` / ``deadline`` / ``error:<Type>`` -- and a
query whose result can be pinned to a stable height must equal the
reference rows at that height: the soak's core promise is that a query
may fail or degrade, but never silently return wrong data.

Progress is persisted after every round through the atomic
:class:`~repro.faults.manifest.RunManifest`, and ``repro doctor
--soak-manifest`` renders the verdict.
"""

from __future__ import annotations

import dataclasses
import errno as errno_module
import random
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.common.config import (
    BlockCuttingConfig,
    BlockStoreConfig,
    FabricConfig,
    StateDbConfig,
)
from repro.common.errors import (
    ConfigError,
    DeadlineExceededError,
    FaultInjectionError,
    ReproError,
    SimulatedCrashError,
    StorageError,
)
from repro.common.resilience import Deadline, RetryPolicy
from repro.fabric.audit import audit_ledger
from repro.fabric.block import VALID
from repro.fabric.network import FabricNetwork
from repro.faults.crashpoints import (
    BLOCKSTORE_MID_ADD,
    LEDGER_MID_STATE,
    LEDGER_POST_COMMIT,
    LEDGER_PRE_APPEND,
    LEDGER_PRE_HISTORY,
    LEDGER_PRE_SAVEPOINT,
    LEDGER_PRE_STATE,
    ORDERER_BLOCK_CUT,
    active_plan,
)
from repro.faults.fs import FaultyFS
from repro.faults.manifest import RunManifest
from repro.faults.plan import FaultPlan
from repro.temporal.chaincodes import SupplyChainChaincode
from repro.temporal.engine import FALLBACK_MODEL, TemporalQueryEngine
from repro.temporal.events import Event
from repro.temporal.intervals import TimeInterval
from repro.temporal.join import JoinRow
from repro.temporal.livequery import LiveJoinQuery
from repro.workload.generator import WorkloadConfig, generate

__all__ = ["ChaosConfig", "FAULT_KINDS", "build_schedule", "run_chaos_soak"]

#: The fault kinds the soak rotates through, one per round.
FAULT_KINDS = ("crash", "bitflip", "readfault", "delay")

#: Crash points that are reached on *every* block commit, so a scheduled
#: occurrence of 1 or 2 is guaranteed to fire in any round that cuts at
#: least two blocks.  (The LSM points only trigger when a memtable fills
#: mid-round, which would make "did the fault fire" timing-dependent.)
PER_BLOCK_CRASH_POINTS = (
    ORDERER_BLOCK_CUT,
    LEDGER_PRE_APPEND,
    BLOCKSTORE_MID_ADD,
    LEDGER_PRE_HISTORY,
    LEDGER_PRE_STATE,
    LEDGER_MID_STATE,
    LEDGER_PRE_SAVEPOINT,
    LEDGER_POST_COMMIT,
)

#: One gateway identity for every writer: transaction ids are derived
#: from (creator, timestamp), so the live run's blocks can only be
#: byte-identical to the reference if both use the same creator.
_CLIENT = "chaos-writer"

_CHAINCODE = "supplychain"

#: Subsystem a fault kind stresses (the rows of the bench matrix).
_SUBSYSTEMS = {
    "crash": "commit-pipeline",
    "bitflip": "statedb",
    "readfault": "blockstore",
    "delay": "blockstore",
}


@dataclasses.dataclass(frozen=True)
class ChaosConfig:
    """Soak parameters; everything downstream is derived from these."""

    seed: int = 0
    #: Faulted rounds (a fault-free completion round always follows).
    rounds: int = 4
    n_shipments: int = 4
    n_containers: int = 2
    n_trucks: int = 2
    events_per_key: int = 8
    #: Orderer batch size; small so every round cuts several blocks.
    block_size: int = 4
    #: LSM memtable entries; small so every round flushes an SSTable.
    memtable_limit: int = 8
    #: Per-query time budget (generous; the delay round overrides it).
    query_budget: float = 2.0
    #: The query thread always runs at least this many queries per round,
    #: so intermittent read faults have traffic to bite.
    min_queries: int = 4

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ConfigError(f"rounds must be >= 1, got {self.rounds}")
        if self.query_budget <= 0:
            raise ConfigError(
                f"query_budget must be positive, got {self.query_budget}"
            )
        if self.min_queries < 1:
            raise ConfigError(
                f"min_queries must be >= 1, got {self.min_queries}"
            )
        per_round = self.total_events // (self.rounds + 1)
        if per_round < 2 * self.block_size:
            raise ConfigError(
                f"{self.rounds} rounds over {self.total_events} events leaves "
                f"{per_round} events per round; need at least two blocks "
                f"({2 * self.block_size} events) so scheduled crash "
                "occurrences are guaranteed to fire"
            )

    @property
    def total_events(self) -> int:
        return (self.n_shipments + self.n_containers) * self.events_per_key


@dataclasses.dataclass
class _Reference:
    """Ground truth from the fault-free run."""

    height: int
    header_hashes: List[str]
    #: ``rows_by_height[h]`` = sorted join rows after ``h`` blocks.
    rows_by_height: List[List[JoinRow]]
    fingerprint: str
    window: TimeInterval


def build_schedule(config: ChaosConfig) -> List[Dict[str, Any]]:
    """The full fault schedule, drawn up front from the seed.

    Round kinds rotate through :data:`FAULT_KINDS` so any soak of at
    least four rounds injects every kind at least once; all numeric
    parameters come from one ``random.Random(seed)``, making the whole
    schedule a pure function of the config.
    """
    rng = random.Random(config.seed)
    schedule: List[Dict[str, Any]] = []
    for round_number in range(config.rounds):
        kind = FAULT_KINDS[round_number % len(FAULT_KINDS)]
        params: Dict[str, Any]
        if kind == "crash":
            params = {
                "point": rng.choice(PER_BLOCK_CRASH_POINTS),
                "occurrence": rng.randint(1, 2),
            }
        elif kind == "bitflip":
            # The .tmp staging file is what actually gets written, so the
            # pattern must match it too ("sst-*" covers both spellings).
            params = {"pattern": "sst-*", "nth_write": 1}
        elif kind == "readfault":
            params = {
                "pattern": "blockfile_*",
                "errno": errno_module.EIO,
                "nth": rng.randint(2, 6),
            }
        else:  # delay
            params = {
                "pattern": "blockfile_*",
                "ms": 5.0,
                "query_budget": 0.05,
            }
        schedule.append(
            {
                "round": round_number,
                "kind": kind,
                "subsystem": _SUBSYSTEMS[kind],
                "params": params,
            }
        )
    return schedule


def run_chaos_soak(
    root: str | Path,
    config: Optional[ChaosConfig] = None,
    manifest_path: Optional[str | Path] = None,
) -> Dict[str, Any]:
    """Run the full soak under ``root``; returns the manifest state.

    ``root`` gains two subdirectories: ``reference`` (the fault-free
    ground-truth ledger) and ``live`` (the ledger that takes the
    beating).  The returned dict -- also saved atomically to
    ``manifest_path`` (default ``root/soak_manifest.json``) after every
    round -- carries the schedule, per-round records and the overall
    verdict in ``"ok"``.
    """
    cfg = config or ChaosConfig()
    root = Path(root)
    fabric_config = _fabric_config(cfg)
    events = _event_stream(cfg)
    window = TimeInterval(0, len(events) + 1)
    reference = _build_reference(root / "reference", fabric_config, events, window)
    schedule = build_schedule(cfg)
    manifest = RunManifest(manifest_path or root / "soak_manifest.json")

    live_dir = root / "live"
    acked: Set[str] = set()
    records: List[Dict[str, Any]] = []
    last_verified_height = 0
    state: Dict[str, Any] = {
        "kind": "chaos-soak",
        "seed": cfg.seed,
        "config": dataclasses.asdict(cfg),
        "reference": {
            "height": reference.height,
            "fingerprint": reference.fingerprint,
            "total_events": len(events),
        },
        "schedule": schedule,
        "events": records,
        "final": None,
        "last_verified_height": last_verified_height,
        "complete": False,
        "ok": True,
    }
    for entry in schedule:
        record = _run_round(live_dir, fabric_config, cfg, entry, events, reference, acked)
        records.append(record)
        if record["ok"]:
            last_verified_height = record["height"]
        state["ok"] = state["ok"] and record["ok"]
        state["last_verified_height"] = last_verified_height
        manifest.save(state)

    final = _final_round(live_dir, fabric_config, cfg, events, reference, acked)
    if final["ok"]:
        last_verified_height = final["height"]
    state["final"] = final
    state["ok"] = state["ok"] and final["ok"]
    state["last_verified_height"] = last_verified_height
    state["complete"] = True
    manifest.save(state)
    return state


# -- workload and reference -------------------------------------------------


def _fabric_config(cfg: ChaosConfig) -> FabricConfig:
    return FabricConfig(
        block_cutting=BlockCuttingConfig(max_message_count=cfg.block_size),
        state_db=StateDbConfig(
            backend="lsm", memtable_limit=cfg.memtable_limit, durability="flush"
        ),
        block_store=BlockStoreConfig(durability="flush"),
    )


def _event_stream(cfg: ChaosConfig) -> List[Event]:
    """The soak workload: the paper's generator, re-timed to be unique.

    Transaction ids derive from (creator, timestamp, occurrence); for a
    crashed round's resubmissions to rebuild *byte-identical* blocks,
    every event needs a timestamp no other event shares.  Re-timing by
    global position preserves the generator's ordering (and therefore
    each key's load/unload alternation, whose per-key times strictly
    increase).
    """
    data = generate(
        WorkloadConfig(
            name=f"chaos-{cfg.seed}",
            n_shipments=cfg.n_shipments,
            n_containers=cfg.n_containers,
            n_trucks=cfg.n_trucks,
            events_per_key=cfg.events_per_key,
            t_max=max(64, 4 * cfg.events_per_key),
            distribution="uniform",
            seed=cfg.seed,
            ingestion="se",
        )
    )
    return [
        dataclasses.replace(event, time=index + 1)
        for index, event in enumerate(data.events)
    ]


def _submit_event(gateway, event: Event) -> None:
    gateway.submit_transaction(
        _CHAINCODE,
        "record_event",
        [event.key, event.other, event.time, event.kind],
        timestamp=event.time,
    )


def _build_reference(
    path: Path, config: FabricConfig, events: List[Event], window: TimeInterval
) -> _Reference:
    """Ingest the whole workload fault-free and record the ground truth."""
    network = FabricNetwork(path, config=config)
    try:
        network.install(SupplyChainChaincode())
        blocks: List[Any] = []
        network.on_block(blocks.append)
        gateway = network.gateway(_CLIENT)
        for event in events:
            _submit_event(gateway, event)
        gateway.flush()
        ledger = network.ledger
        ledger.verify_chain()
        header_hashes = [
            block.header.hash().hex() for block in ledger.block_store.iter_blocks()
        ]
        live = LiveJoinQuery(window=window)
        rows_by_height: List[List[JoinRow]] = [[]]
        for block in blocks:
            live.on_block(block)
            rows_by_height.append(sorted(live.rows()))
        return _Reference(
            height=ledger.height,
            header_hashes=header_hashes,
            rows_by_height=rows_by_height,
            fingerprint=ledger.state_fingerprint(),
            window=window,
        )
    finally:
        network.close()


def _round_target(cfg: ChaosConfig, total: int, round_number: int) -> int:
    """How far into the event stream round ``round_number`` ingests."""
    return total * (round_number + 1) // (cfg.rounds + 1)


def _committed_tx_count(ledger) -> int:
    """Events already on the chain = where a resumed round picks up.

    Single-event ingestion submits one transaction per event in stream
    order and only whole blocks commit, so the chain always holds an
    exact prefix of the event stream.
    """
    return sum(len(block.transactions) for block in ledger.block_store.iter_blocks())


# -- one faulted round ------------------------------------------------------


def _arm(plan: FaultPlan, entry: Dict[str, Any]) -> None:
    """Schedule this round's fault on ``plan``.

    Called *after* the network opened: recovery of the previous round's
    damage must not consume the new round's read-fault budget.
    """
    params = entry["params"]
    kind = entry["kind"]
    if kind == "crash":
        plan.crash_at(params["point"], occurrence=params["occurrence"])
    elif kind == "bitflip":
        plan.flip_bit(params["pattern"], nth_write=params["nth_write"])
    elif kind == "readfault":
        plan.fail_reads(params["pattern"], errno=params["errno"], nth=params["nth"])
    else:  # delay
        plan.delay(params["pattern"], params["ms"])


def _ingest_worker(
    gateway,
    events: List[Event],
    start: int,
    target: int,
    stop_reason: List[str],
    progress: Dict[str, int],
) -> None:
    """Submit ``events[start:target]`` until done or the session dies.

    Any typed failure on the submit path ends the round: after a commit
    raised mid-pipeline the in-memory chain head and the orderer
    disagree, so the only sound continuation is crash semantics --
    stop, kill the filesystem, and let recovery replay.  (Intermittent
    faults are retried where retrying is sound: on the query path.)
    """
    for index in range(start, target):
        try:
            _submit_event(gateway, events[index])
        except (SimulatedCrashError, FaultInjectionError) as exc:
            stop_reason.append(f"crash:{exc}")
            return
        except (ReproError, OSError) as exc:
            stop_reason.append(f"abort:{type(exc).__name__}")
            return
        progress["submitted"] = index + 1


def _classify_query(
    engine: TemporalQueryEngine,
    ledger,
    reference: _Reference,
    model: str,
    budget: float,
    retry: RetryPolicy,
) -> Tuple[str, Optional[str]]:
    """Run one join and classify it; returns ``(outcome, violation)``.

    ``violation`` is non-``None`` only for the unforgivable case: a
    query that *appeared* to succeed at a stable height but returned
    rows differing from the reference.  Failures and degradations are
    outcomes, not violations -- the contract is typed errors or correct
    rows, never silent corruption.
    """
    degrade = model != FALLBACK_MODEL
    try:
        height_before = ledger.height
        savepoint_before = ledger.state_db.savepoint()
        result = engine.run_join(
            model,
            reference.window,
            deadline=Deadline.after(budget),
            degrade=degrade,
        )
        height_after = ledger.height
        savepoint_after = ledger.state_db.savepoint()
    except DeadlineExceededError:
        return "deadline", None
    except StorageError as exc:
        label = f"error:{type(exc).__name__}"
        # Injected read faults are intermittent by construction, so a
        # bounded retry of the *query* (a pure read) is sound and should
        # succeed -- unlike retrying a failed submit.
        try:
            retry.call(
                lambda: engine.run_join(model, reference.window, degrade=degrade),
                retry_on=(StorageError,),
            )
        except (ReproError, RuntimeError, OSError):
            return label, None
        return f"{label}:retried-ok", None
    except (ReproError, RuntimeError, OSError) as exc:
        return f"error:{type(exc).__name__}", None

    label = "degraded" if result.degraded is not None else "ok"
    # The result is attributable to height h only if no commit was in
    # flight anywhere across the query: height stable AND the savepoint
    # (written last in the commit pipeline) already caught up on both
    # sides.  Anything else is correct-but-unpinnable: skip the check.
    expected_savepoint = height_before - 1 if height_before > 0 else None
    stable = (
        height_after == height_before
        and savepoint_before == expected_savepoint
        and savepoint_after == expected_savepoint
        and height_before < len(reference.rows_by_height)
    )
    if not stable:
        return f"{label}-unstable", None
    if sorted(result.rows) == reference.rows_by_height[height_before]:
        return f"{label}-verified", None
    return (
        f"{label}-WRONG",
        f"{model} query at stable height {height_before} returned rows "
        "differing from the reference run",
    )


def _query_worker(
    network: FabricNetwork,
    reference: _Reference,
    budget: float,
    min_queries: int,
    stop: threading.Event,
    outcomes: Dict[str, int],
    violations: List[str],
    breaker_trips: Dict[str, int],
) -> None:
    """Alternate TQF and degraded-mode M1 joins until ingest finishes
    (and at least ``min_queries`` ran, so every round sees queries)."""
    engine = TemporalQueryEngine(network.ledger, network.metrics)
    retry = RetryPolicy(max_retries=1, base=0.0)
    models = (FALLBACK_MODEL, "m1")
    count = 0
    while not stop.is_set() or count < min_queries:
        model = models[count % len(models)]
        outcome, violation = _classify_query(
            engine, network.ledger, reference, model, budget, retry
        )
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
        if violation is not None:
            violations.append(violation)
        count += 1
        time.sleep(0)  # yield to the ingest thread
    for model, breaker in engine.breakers.items():
        breaker_trips[model] = breaker.trips


def _quarantined_tables(live_dir: Path) -> List[str]:
    from repro.storage.kv.lsm import QUARANTINE_DIR

    quarantine = live_dir / "statedb" / QUARANTINE_DIR
    return sorted(path.name for path in quarantine.glob("*.sst"))


def _run_round(
    live_dir: Path,
    config: FabricConfig,
    cfg: ChaosConfig,
    entry: Dict[str, Any],
    events: List[Event],
    reference: _Reference,
    acked: Set[str],
) -> Dict[str, Any]:
    """One faulted round: ingest + query under the armed plan, then
    recover on the real filesystem and check every invariant."""
    quarantined_before = _quarantined_tables(live_dir)
    plan = FaultPlan(seed=cfg.seed + entry["round"])
    fs = FaultyFS(plan)
    network = FabricNetwork(live_dir, config=config, fs=fs)
    network.install(SupplyChainChaincode())

    def listener(block) -> None:
        for tx in block.transactions:
            if tx.validation_code == VALID:
                acked.add(tx.tx_id)

    network.on_block(listener)
    gateway = network.gateway(_CLIENT)
    resume_from = _committed_tx_count(network.ledger)
    target = _round_target(cfg, len(events), entry["round"])
    # Arm only now: opening the network (recovery reads) must not
    # consume this round's scheduled read faults.
    _arm(plan, entry)

    budget = entry["params"].get("query_budget", cfg.query_budget)
    stop = threading.Event()
    stop_reason: List[str] = []
    progress = {"submitted": resume_from}
    outcomes: Dict[str, int] = {}
    violations: List[str] = []
    breaker_trips: Dict[str, int] = {}
    ingest = threading.Thread(
        target=_ingest_worker,
        args=(gateway, events, resume_from, target, stop_reason, progress),
        name=f"chaos-ingest-{entry['round']}",
    )
    query = threading.Thread(
        target=_query_worker,
        args=(
            network,
            reference,
            budget,
            cfg.min_queries,
            stop,
            outcomes,
            violations,
            breaker_trips,
        ),
        name=f"chaos-query-{entry['round']}",
    )
    with active_plan(plan):
        query.start()
        ingest.start()
        ingest.join()
        stop.set()
        query.join()

    if stop_reason:
        fs.kill(power_loss=False)
    else:
        try:
            # Close peers directly: a full network.close() would flush
            # the orderer's pending partial block, committing a block
            # the reference chain cuts at a different boundary.
            for peer in network.peers.values():
                peer.close()
        except (ReproError, OSError) as exc:
            stop_reason.append(f"close:{type(exc).__name__}")
            fs.kill(power_loss=False)

    invariants, height, recovery_seconds, notes = _recover_and_verify(
        live_dir, config, reference, acked
    )
    quarantined_after = _quarantined_tables(live_dir)
    invariants["fault-observed"] = _fault_observed(
        entry["kind"], plan, quarantined_before, quarantined_after
    )
    invariants["no-silently-wrong-rows"] = not violations
    notes.extend(violations)
    return {
        "round": entry["round"],
        "kind": entry["kind"],
        "subsystem": entry["subsystem"],
        "params": entry["params"],
        "fired": plan.fired,
        "delays_applied": plan.delays_applied,
        "stop_reason": stop_reason[0] if stop_reason else None,
        "submitted_through": progress["submitted"],
        "target": target,
        "query_outcomes": outcomes,
        "breaker_trips": breaker_trips,
        "quarantined": quarantined_after,
        "recovery_seconds": round(recovery_seconds, 6),
        "height": height,
        "invariants": invariants,
        "notes": notes,
        "ok": all(invariants.values()),
    }


def _fault_observed(
    kind: str,
    plan: FaultPlan,
    quarantined_before: List[str],
    quarantined_after: List[str],
) -> bool:
    """Did the scheduled fault demonstrably happen?

    Each kind leaves different evidence: crashes and read faults mark
    the plan as fired, injected latency counts its sleeps, and a silent
    bit flip is only ever *observed* as a checksum failure -- i.e. a
    newly quarantined SSTable after recovery.
    """
    if kind == "crash":
        return plan.fired is not None
    if kind == "bitflip":
        return len(quarantined_after) > len(quarantined_before)
    if kind == "readfault":
        return plan.fired is not None and plan.fired.startswith("read:")
    return plan.delays_applied > 0


# -- recovery and verification ---------------------------------------------


def _recover_and_verify(
    live_dir: Path,
    config: FabricConfig,
    reference: _Reference,
    acked: Set[str],
    final: bool = False,
) -> Tuple[Dict[str, bool], int, float, List[str]]:
    """Reopen on the real filesystem and check every soak invariant.

    Returns ``(invariants, height, recovery_seconds, notes)``; recovery
    time is the full reopen (WAL replay, quarantine, index rebuild,
    state replay), which the bench reports per fault kind.
    """
    from repro.faults.doctor import run_doctor

    started = time.monotonic()
    network = FabricNetwork(live_dir, config=config)
    recovery_seconds = time.monotonic() - started
    invariants: Dict[str, bool] = {}
    notes: List[str] = []
    ledger = network.ledger
    try:
        try:
            ledger.verify_chain()
            invariants["chain-verifies"] = True
        except ReproError as exc:
            invariants["chain-verifies"] = False
            notes.append(str(exc))
        height = ledger.height
        prefix_ok = height <= reference.height
        if not prefix_ok:
            notes.append(
                f"live height {height} exceeds reference height {reference.height}"
            )
        else:
            for block in ledger.block_store.iter_blocks():
                if block.header.hash().hex() != reference.header_hashes[block.number]:
                    prefix_ok = False
                    notes.append(
                        f"block {block.number} header differs from the reference run"
                    )
                    break
        invariants["prefix-matches-reference"] = prefix_ok
        committed = {
            tx.tx_id
            for block in ledger.block_store.iter_blocks()
            for tx in block.transactions
            if tx.validation_code == VALID
        }
        lost = acked - committed
        invariants["no-acked-tx-lost"] = not lost
        if lost:
            notes.append(f"acknowledged transactions lost: {sorted(lost)[:3]}")
        audit = audit_ledger(ledger)
        invariants["audit-clean"] = audit.ok
        if not audit.ok:
            notes.extend(
                str(finding)
                for finding in audit.findings
                if finding.severity == "error"
            )
        # Recovery already quarantined anything corrupt; a scrub of the
        # rebuilt store must come back empty.
        invariants["scrub-clean"] = ledger.state_db.scrub() == ()
        if prefix_ok:
            engine = TemporalQueryEngine(ledger, network.metrics)
            tqf_rows = sorted(engine.run_join(FALLBACK_MODEL, reference.window).rows)
            invariants["tqf-matches-reference"] = (
                tqf_rows == reference.rows_by_height[height]
            )
            m1_result = engine.run_join("m1", reference.window, degrade=True)
            m1_ok = sorted(m1_result.rows) == reference.rows_by_height[height]
            if height > 0:
                # With committed-but-unindexed events M1 *must* answer
                # via the typed degraded path, never silently.
                m1_ok = m1_ok and m1_result.degraded is not None
            invariants["m1-degrades-to-correct-rows"] = m1_ok
        else:
            invariants["tqf-matches-reference"] = False
            invariants["m1-degrades-to-correct-rows"] = False
        if final:
            invariants["chain-complete"] = height == reference.height
            invariants["state-fingerprint-matches"] = (
                ledger.state_fingerprint() == reference.fingerprint
            )
    finally:
        network.close()
    doctor = run_doctor(live_dir, config=config)
    invariants["doctor-ok"] = doctor.ok
    if not doctor.ok:
        notes.extend(
            str(finding) for finding in doctor.findings if finding.severity == "error"
        )
    return invariants, height, recovery_seconds, notes


def _final_round(
    live_dir: Path,
    config: FabricConfig,
    cfg: ChaosConfig,
    events: List[Event],
    reference: _Reference,
    acked: Set[str],
) -> Dict[str, Any]:
    """Fault-free completion: ingest the rest, then require the full
    chain and state fingerprint to equal the reference bit-for-bit."""
    network = FabricNetwork(live_dir, config=config)
    try:
        network.install(SupplyChainChaincode())

        def listener(block) -> None:
            for tx in block.transactions:
                if tx.validation_code == VALID:
                    acked.add(tx.tx_id)

        network.on_block(listener)
        gateway = network.gateway(_CLIENT)
        resume_from = _committed_tx_count(network.ledger)
        for event in events[resume_from:]:
            _submit_event(gateway, event)
        gateway.flush()
    finally:
        network.close()
    invariants, height, recovery_seconds, notes = _recover_and_verify(
        live_dir, config, reference, acked, final=True
    )
    return {
        "round": "final",
        "kind": "none",
        "subsystem": "none",
        "resumed_from": resume_from,
        "recovery_seconds": round(recovery_seconds, 6),
        "height": height,
        "invariants": invariants,
        "notes": notes,
        "ok": all(invariants.values()),
    }
