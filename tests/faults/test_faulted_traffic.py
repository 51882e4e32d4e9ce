"""Queries racing a faulted committer: a typed error or exactly the right rows.

Four rounds grow one ``lsm`` ledger by single-event supply-chain ingest on
a :class:`FaultyFS`, each under one fault, while a reader thread alternates
TQF joins and ``degrade=True`` M1 joins (no M1 index exists, so M1 must
answer ``degraded``).  Every answer is a typed error, a deadline, or the
oracle's rows at a height no commit was crossing.  After each round the
directory, reopened on the real filesystem, equals a fault-free reference
at the height it recovered to; a fault-free round then completes it.  The
oracle, :func:`temporal_join` over the events a height holds, is checked
against TQF on the reference at every height.
"""

from __future__ import annotations

import dataclasses
import itertools
import threading
from collections import Counter, defaultdict
from typing import List, NamedTuple, Optional

import pytest

from repro.common.errors import DeadlineExceededError, ReproError
from repro.common.resilience import Deadline
from repro.fabric.network import FabricNetwork
from repro.faults import FaultPlan, FaultyFS, active_plan
from repro.faults.crashpoints import BLOCKSTORE_MID_ADD
from repro.storage.kv.lsm import QUARANTINE_DIR
from repro.temporal.chaincodes import SupplyChainChaincode
from repro.temporal.engine import TemporalQueryEngine
from repro.temporal.intervals import TimeInterval
from repro.temporal.join import temporal_join
from repro.workload.generator import WorkloadConfig, generate
from repro.workload.ingest import ingest
from tests.faults.harness import HeightRecord, acked_tx_ids, lsm_config, reopen_and_verify
from tests.helpers import rows_digest

WORKLOAD = WorkloadConfig(
    name="faulted-traffic", n_shipments=4, n_containers=2, n_trucks=2,
    events_per_key=12, t_max=64, seed=5, ingestion="se",
)
#: Re-timed to unique timestamps: a transaction id derives from (creator,
#: timestamp), so only then does a resumed round rebuild the reference's
#: blocks byte for byte.
EVENTS = [dataclasses.replace(e, time=i + 1) for i, e in enumerate(generate(WORKLOAD).events)]
WINDOW = TimeInterval(0, len(EVENTS) + 1)
CONFIG = lsm_config()
BLOCK = CONFIG.block_cutting.max_message_count
CLIENT = "writer"

#: ``(fault, arm, evidence it happened, per-query budget in seconds)``;
#: the last round completes the stream fault-free.
ROUNDS = [
    ("crash", lambda plan: plan.crash_at(BLOCKSTORE_MID_ADD, occurrence=3),
     lambda plan, path: plan.fired == BLOCKSTORE_MID_ADD, 2.0),
    ("bitflip", lambda plan: plan.flip_bit("sst-*"),
     lambda plan, path: any((path / "statedb" / QUARANTINE_DIR).glob("*.sst")), 2.0),
    ("readfault", lambda plan: plan.fail_reads("blockfile_*", nth=1),
     lambda plan, path: (plan.fired or "").startswith("read:"), 2.0),
    ("delay", lambda plan: plan.delay("blockfile_*", ms=5.0),
     lambda plan, path: plan.delays_applied > 0, 0.05),
    ("none", lambda plan: plan, lambda plan, path: plan.fired is None, 2.0),
]


class Reference(NamedTuple):
    record: HeightRecord
    rows: List[list]  # the oracle's rows at every height
    digest: str


def oracle(events) -> list:
    shipments, containers = defaultdict(list), defaultdict(list)
    for event in events:
        (shipments if event.key.startswith("S") else containers)[event.key].append(event)
    return temporal_join(shipments, containers, WINDOW)


@pytest.fixture(scope="module")
def reference(tmp_path_factory) -> Reference:
    with FabricNetwork(tmp_path_factory.mktemp("reference"), config=CONFIG) as network:
        network.install(SupplyChainChaincode())
        record = HeightRecord(network)
        engine = TemporalQueryEngine(network.ledger, network.metrics)
        tqf_rows = [engine.run_join("tqf", WINDOW).rows]
        network.on_block(lambda block: tqf_rows.append(engine.run_join("tqf", WINDOW).rows))
        ingest(network.gateway(CLIENT), EVENTS, SupplyChainChaincode.name, strategy="se")
        rows = [oracle(EVENTS[: record.txs_at(h)]) for h in range(record.height + 1)]
        assert tqf_rows == rows and record.txs_at(record.height) == len(EVENTS)
        return Reference(record, rows, rows_digest(engine, "tqf", WINDOW))


def settled_height(ledger) -> Optional[int]:
    """The height, unless a commit is part-way through (savepoint last)."""
    height = ledger.height
    return height if ledger.state_db.savepoint() == (height - 1 if height else None) else None


def read_until(started, done, network, budget, rows, answers) -> None:
    """Alternate TQF and degraded M1 joins -- the first before ingest
    starts, so the round's fault meets a pinned query -- until ``done``,
    then ask each once more of the ledger the round left behind."""
    ledger, engine = network.ledger, TemporalQueryEngine(network.ledger, network.metrics)

    def ask(model: str) -> str:
        try:
            height = settled_height(ledger)
            result = engine.run_join(
                model, WINDOW, deadline=Deadline.after(budget), degrade=model == "m1"
            )
            if height is None or settled_height(ledger) != height:
                return "unpinned"
        except DeadlineExceededError:
            return "deadline"
        except ReproError as exc:
            return f"error:{type(exc).__name__}"
        if model == "m1" and height and result.degraded is None:
            return f"WRONG: m1 answered at height {height} with no index and no degraded marker"
        if result.rows != rows[height]:
            return f"WRONG: {model} rows at height {height} differ from the oracle's"
        return "verified"

    models = itertools.cycle(("tqf", "m1"))
    try:
        answers.append(ask(next(models)))
    finally:
        started.set()
    while not done.is_set():
        answers.append(ask(next(models)))
    answers += [ask("tqf"), ask("m1")]


def run_round(path, reference, acked, target, arm, budget):
    """Ingest up to ``target`` events under ``arm``'s fault with the reader
    racing; returns the plan and a tally of the reader's answers."""
    plan = FaultPlan(seed=target)
    fs = FaultyFS(plan)
    network = FabricNetwork(path, config=CONFIG, fs=fs)
    network.install(SupplyChainChaincode())
    round_acked = acked_tx_ids(network)
    start = reference.record.txs_at(network.ledger.height)
    arm(plan)  # only now: recovery reads must not consume the round's read faults
    started, done, answers = threading.Event(), threading.Event(), []
    args = (started, done, network, budget, reference.rows, answers)
    reader = threading.Thread(target=read_until, args=args, daemon=True)
    with active_plan(plan):
        reader.start()
        assert started.wait(timeout=60), "the reader never answered"
        try:
            ingest(network.gateway(CLIENT), EVENTS[start:target], SupplyChainChaincode.name, strategy="se")
            crashed = False
        except ReproError:  # the crash, or a commit the fault broke
            crashed = True
        finally:
            done.set()
            reader.join(timeout=60)
        assert not reader.is_alive(), "the reader outlived the round"
        try:
            if not crashed:
                network.close()
        except ReproError:  # a table the flip corrupted fails its check here
            crashed = True
    if crashed:
        fs.kill(power_loss=False)
    acked |= round_acked
    return plan, Counter(answers)


def check_recovered(path, reference, acked) -> int:
    """``reopen_and_verify`` at the recovered height, then scrub and rows."""
    height = reopen_and_verify(path, CONFIG, acked, reference.record)
    with FabricNetwork(path, config=CONFIG) as network:
        assert network.ledger.state_db.scrub() == ()
        engine = TemporalQueryEngine(network.ledger, network.metrics)
        assert engine.run_join("tqf", WINDOW).rows == reference.rows[height]
        m1 = engine.run_join("m1", WINDOW, degrade=True)
        assert m1.rows == reference.rows[height] and m1.degraded is not None
    return height


def test_queries_racing_a_faulted_committer_are_right_or_typed(tmp_path, reference):
    path, acked, blocks = tmp_path / "ledger", set(), len(EVENTS) // BLOCK
    for number, (fault, arm, observed, budget) in enumerate(ROUNDS):
        target = BLOCK * (blocks * (number + 1) // len(ROUNDS))
        plan, answers = run_round(path, reference, acked, target, arm, budget)
        assert not [a for a in answers if a.startswith("WRONG")], (fault, answers)
        if fault == "delay":
            assert set(answers) == {"deadline"}, answers
        else:
            assert "verified" in answers, (fault, answers)
        height = check_recovered(path, reference, acked)
        assert observed(plan, path), f"the {fault} fault never happened"

    assert height == reference.record.height
    with FabricNetwork(path, config=CONFIG) as network:
        engine = TemporalQueryEngine(network.ledger, network.metrics)
        assert rows_digest(engine, "tqf", WINDOW) == reference.digest
        assert rows_digest(engine, "m1", WINDOW, degrade=True) == reference.digest
