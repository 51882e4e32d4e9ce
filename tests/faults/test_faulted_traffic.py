"""Queries between the commits of a faulted committer: a typed error or
exactly the right rows.

Four rounds grow one ``lsm`` ledger by single-event supply-chain ingest on
a :class:`FaultyFS`, three of them under one fault each.  A reader on the
same thread alternates TQF and M1 joins -- one before the round's ingest,
one after every commit (a block listener) and one of each on the ledger
the round left behind -- (no M1 index exists, so at any height above 0 M1
must refuse with a typed error, never answer rows).  Every answer is a
typed error or the oracle's rows at the height it read: a verified
prefix of the stream.  After each round the
directory, reopened on the real filesystem, equals a fault-free reference
at the height it recovered to; a fault-free round then completes it.  The
oracle, :func:`temporal_join` over the events a height holds, is checked
against TQF on the reference at every height.
"""

from __future__ import annotations

import itertools
from collections import Counter, defaultdict
from contextlib import closing
from typing import List, NamedTuple, Optional

import pytest

from repro.common.errors import ReproError, TemporalQueryError
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
EVENTS = [e._replace(time=i + 1) for i, e in enumerate(generate(WORKLOAD).events)]
WINDOW = TimeInterval(0, len(EVENTS) + 1)
CONFIG = lsm_config()
BLOCK = CONFIG.block_cutting.max_message_count
CLIENT = "writer"

#: ``(fault, arm, evidence it happened)``; the last round completes the
#: stream fault-free.
ROUNDS = [
    ("crash", lambda plan: plan.crash_at(BLOCKSTORE_MID_ADD, occurrence=3),
     lambda plan, path: plan.fired == BLOCKSTORE_MID_ADD),
    ("bitflip", lambda plan: plan.flip_bit("sst-*"),
     lambda plan, path: any((path / "statedb" / QUARANTINE_DIR).glob("*.sst"))),
    ("readfault", lambda plan: plan.fail_reads("blockfile_*", nth=1),
     lambda plan, path: (plan.fired or "").startswith("read:")),
    ("none", lambda plan: plan, lambda plan, path: plan.fired is None),
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
    with closing(FabricNetwork(tmp_path_factory.mktemp("reference"), config=CONFIG)) as network:
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


class Reader:
    """Alternates TQF and M1 joins on ``network``'s ledger, recording how
    each answer checks against the oracle's ``rows``."""

    def __init__(self, network, rows) -> None:
        self.ledger = network.ledger
        self.engine = TemporalQueryEngine(network.ledger, network.metrics)
        self.rows = rows
        self.models = itertools.cycle(("tqf", "m1"))
        self.answers: List[str] = []

    def ask(self, model: Optional[str] = None) -> None:
        self.answers.append(self._check(model or next(self.models)))

    def _check(self, model: str) -> str:
        try:
            height = settled_height(self.ledger)
            result = self.engine.run_join(model, WINDOW)
            if height is None:  # a commit the fault cut short
                return "unpinned"
        except ReproError as exc:
            return f"error:{type(exc).__name__}"
        if model == "m1" and height:
            return f"WRONG: m1 answered at height {height} with no index"
        if result.rows != self.rows[height]:
            return f"WRONG: {model} rows at height {height} differ from the oracle's"
        return "verified"


def run_round(path, reference, acked, target, arm):
    """Ingest up to ``target`` events under ``arm``'s fault with a query
    between every two commits; returns the plan and a tally of the
    reader's answers."""
    plan = FaultPlan(seed=target)
    fs = FaultyFS(plan)
    network = FabricNetwork(path, config=CONFIG, fs=fs)
    network.install(SupplyChainChaincode())
    round_acked = acked_tx_ids(network)
    start = reference.record.txs_at(network.ledger.height)
    arm(plan)  # only now: recovery reads must not consume the round's read faults
    reader = Reader(network, reference.rows)
    network.on_block(lambda block: reader.ask())
    with active_plan(plan):
        reader.ask()  # before ingest, so the round's fault meets a query
        try:
            ingest(network.gateway(CLIENT), EVENTS[start:target], SupplyChainChaincode.name, strategy="se")
            crashed = False
        except ReproError:  # the crash, or a commit the fault broke
            crashed = True
        reader.ask("tqf")
        reader.ask("m1")
        try:
            if not crashed:
                network.close()
        except ReproError:  # a table the flip corrupted fails its check here
            crashed = True
    if crashed:
        fs.kill(power_loss=False)
    acked |= round_acked
    return plan, Counter(reader.answers)


def check_recovered(path, reference, acked) -> int:
    """``reopen_and_verify`` at the recovered height (its doctor re-reads
    every table's checksum from disk), then the rows."""
    height = reopen_and_verify(path, CONFIG, acked, reference.record)
    with closing(FabricNetwork(path, config=CONFIG)) as network:
        engine = TemporalQueryEngine(network.ledger, network.metrics)
        assert engine.run_join("tqf", WINDOW).rows == reference.rows[height]
        with pytest.raises(TemporalQueryError, match="no indexing run covers"):
            engine.run_join("m1", WINDOW)
    return height


def test_queries_between_faulted_commits_are_right_or_typed(tmp_path, reference):
    path, acked, blocks = tmp_path / "ledger", set(), len(EVENTS) // BLOCK
    for number, (fault, arm, observed) in enumerate(ROUNDS):
        target = BLOCK * (blocks * (number + 1) // len(ROUNDS))
        plan, answers = run_round(path, reference, acked, target, arm)
        assert not [a for a in answers if a.startswith("WRONG")], (fault, answers)
        assert "verified" in answers, (fault, answers)
        height = check_recovered(path, reference, acked)
        assert observed(plan, path), f"the {fault} fault never happened"

    assert height == reference.record.height
    with closing(FabricNetwork(path, config=CONFIG)) as network:
        engine = TemporalQueryEngine(network.ledger, network.metrics)
        assert rows_digest(engine, "tqf", WINDOW) == reference.digest
