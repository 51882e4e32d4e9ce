"""Canned concurrency workloads that exercise every instrumented seam.

Each scenario drives one lock-carrying class the way its production
callers do -- shared instance, many threads, mixed read/write traffic --
while a sanitizer session records happens-before and lockset evidence.
On a correct tree every scenario is race-free; the mutation-acceptance
tests subclass the same classes with the lock removed and prove the
sanitizer pinpoints the seeded bug.

:func:`run_scenarios` is the engine behind ``repro san``: it runs the
chosen scenarios once without schedule fuzzing, then ``fuzz_rounds``
more times with per-round derived seeds perturbing the interleavings,
and merges everything into one deduplicated
:class:`~repro.sanitizer.report.SanitizerReport`.
"""

from __future__ import annotations

import tempfile
import threading
import time
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigError
from repro.sanitizer import runtime
from repro.sanitizer.fuzz import FuzzSchedule, derive_seed
from repro.sanitizer.report import RaceReport, SanitizerReport

if TYPE_CHECKING:
    from repro.fabric.block import Block

#: A scenario takes the worker count and runs its workload to completion.
Scenario = Callable[[int], None]


def _run_threads(workers: int, target: Callable[[int], None]) -> None:
    """Start ``workers`` threads running ``target(index)`` and join all.

    ``threading.Thread`` start/join are patched by the active sanitizer,
    so this helper is also what gives every scenario its fork/join
    happens-before edges.
    """
    threads = [
        threading.Thread(target=target, args=(index,), name=f"scenario-{index}")
        for index in range(workers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def _scenario_metrics(workers: int) -> None:
    """Concurrent counter increments -- one at a time and several per
    call, as a block read and a GHFK result tick them -- and timer
    observations."""
    from repro.common.metrics import MetricsRegistry

    registry = MetricsRegistry()

    def work(index: int) -> None:
        for step in range(40):
            registry.increment("scenario.ops")
            registry.increment_many(("scenario.ops", 1), ("scenario.bytes", index + step))
            registry.add_time("scenario.latency", 0.001 * ((index + step) % 5))
        registry.counter("scenario.ops")
        registry.snapshot()

    _run_threads(workers, work)


def _fake_block(number: int, keys: Sequence[str]) -> Block:
    """An eager block of one VALID single-write transaction per key,
    for index-only traffic: nothing is serialized or signed."""
    from repro.fabric.block import (
        GENESIS_PREVIOUS_HASH,
        VALID,
        Block,
        BlockHeader,
        RWSet,
        Transaction,
    )

    transactions = []
    for key in keys:
        rw_set = RWSet()
        rw_set.add_write(key, number)
        transactions.append(Transaction(
            tx_id=f"san-{number}-{key}",
            chaincode="kv",
            creator="san",
            timestamp=number,
            rw_set=rw_set,
            validation_code=VALID,
        ))
    return Block(BlockHeader(number, GENESIS_PREVIOUS_HASH, b""), transactions)


def _scenario_historydb(workers: int) -> None:
    """Index writers racing location readers on a shared HistoryDB."""
    from repro.fabric.historydb import HistoryDB

    history = HistoryDB()

    def work(index: int) -> None:
        for step in range(25):
            block_num = index * 100 + step
            history.index_block(
                _fake_block(block_num, [f"key-{(index + step) % 6}"])
            )
            history.locations_for_key(f"key-{step % 6}")
            history.block_count_for_key(f"key-{(step + 1) % 6}")
            history.key_count()
            history.keys()

    _run_threads(workers, work)


def _scenario_lsm(workers: int) -> None:
    """State-db writers racing get/scan readers on both backends; the
    LSM store's writes force memtable flushes."""
    from repro.storage.kv.lsm import LSMStore
    from repro.storage.kv.memstore import MemStore

    with tempfile.TemporaryDirectory(prefix="repro-san-lsm-") as tmp:
        stores = (
            LSMStore(tmp, memtable_limit=8, compaction_trigger=4),
            MemStore(),
        )

        def work(index: int) -> None:
            for step in range(20):
                key = f"k{(index + step) % 12:03d}".encode()
                for store in stores:
                    if index % 2 == 0:
                        store.put(key, f"v{index}.{step}".encode())
                    else:
                        store.get(key)
                        if step % 5 == 0:
                            list(store.scan(b"k000", b"k006"))

        _run_threads(workers, work)


def _scenario_blockfile(workers: int) -> None:
    """One committer appending across rollovers while readers hammer
    ``read``/``file_size`` over sealed and current files -- the
    shared-append-handle seam (reader-side visibility flush vs mid-record
    writes and rollover) and the shared read-descriptor cache."""
    from repro.storage.blockfile import BlockFileManager

    with tempfile.TemporaryDirectory(prefix="repro-san-blockfile-") as tmp:
        manager = BlockFileManager(tmp, max_file_bytes=512)
        locations = [manager.append(b"seed-payload")]
        try:

            def work(index: int) -> None:
                for step in range(25):
                    if index == 0:  # the committer thread
                        locations.append(
                            manager.append(f"blk-{step:03d}".encode() * 4)
                        )
                    else:
                        count = len(locations)
                        # Oldest (sealed once the committer rolls over),
                        # newest (the file being appended to), and one
                        # in between.
                        for position in (0, count - 1, (index + step) % count):
                            manager.read(locations[position])
                        manager.file_size(manager.current_file_num)

            _run_threads(workers, work)
        finally:
            manager.close()


def _scenario_faultyfile(workers: int) -> None:
    """Concurrent writes and flushes through one fault-injected handle."""
    from repro.faults.fs import FaultyFS
    from repro.faults.plan import FaultPlan

    with tempfile.TemporaryDirectory(prefix="repro-san-fs-") as tmp:
        fs = FaultyFS(FaultPlan(seed=7))
        handle = fs.open(f"{tmp}/scenario.bin", "wb")
        try:

            def work(index: int) -> None:
                for step in range(15):
                    handle.write(bytes([index % 256]) * 8)
                    if step % 4 == 0:
                        handle.flush()

            _run_threads(workers, work)
        finally:
            handle.close()


#: Name -> workload; ``repro san --list`` prints these with docstrings.
SCENARIOS: Dict[str, Scenario] = {
    "metrics": _scenario_metrics,
    "historydb": _scenario_historydb,
    "lsm": _scenario_lsm,  # both state-db backends
    "blockfile": _scenario_blockfile,
    "faultyfile": _scenario_faultyfile,
}


def _race_key(race: RaceReport) -> Tuple[str, str, str, str, str]:
    """Dedup key across rounds: same cell, kind and both sites."""
    return (race.kind, race.cls, race.attr, race.first.site(), race.second.site())


def run_scenarios(
    names: Optional[Sequence[str]] = None,
    workers: int = 8,
    seed: int = 0,
    fuzz_rounds: int = 0,
) -> SanitizerReport:
    """Run scenarios under the sanitizer and merge rounds into one report.

    Round 0 runs with the plain scheduler; rounds ``1..fuzz_rounds`` run
    with a :class:`~repro.sanitizer.fuzz.FuzzSchedule` seeded by
    :func:`~repro.sanitizer.fuzz.derive_seed` so each round explores a
    different interleaving while staying replayable from ``seed`` alone.
    """
    chosen = list(names) if names else list(SCENARIOS)
    unknown = [name for name in chosen if name not in SCENARIOS]
    if unknown:
        raise ConfigError(
            f"unknown scenario(s) {unknown}; available: {sorted(SCENARIOS)}"
        )
    if workers < 2:
        raise ConfigError(f"scenarios need >= 2 workers, got {workers}")

    races: List[RaceReport] = []
    seen: set = set()
    cycles: List[dict] = []
    cycle_keys: set = set()
    events = 0
    started = time.monotonic()
    for round_index in range(fuzz_rounds + 1):
        fuzz = (
            FuzzSchedule(derive_seed(seed, round_index))
            if round_index > 0
            else None
        )
        with runtime.sanitized(seed=seed, fuzz=fuzz) as sanitizer:
            for name in chosen:
                SCENARIOS[name](workers)
            round_report = sanitizer.build_report()
        events += round_report.events_traced
        for race in round_report.races:
            key = _race_key(race)
            if key not in seen:
                seen.add(key)
                races.append(race)
        for cycle in round_report.lock_order_cycles:
            key = tuple(cycle.get("locks", ()))
            if key not in cycle_keys:
                cycle_keys.add(key)
                cycles.append(cycle)

    return SanitizerReport(
        seed=seed,
        workers=workers,
        fuzz_rounds=fuzz_rounds,
        source="scenarios",
        scenarios=chosen,
        races=races,
        lock_order_cycles=cycles,
        events_traced=events,
        duration_seconds=time.monotonic() - started,
    )
