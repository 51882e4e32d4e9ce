"""Mutation acceptance: seeded concurrency bugs the sanitizer must catch.

Each test subclasses a production class and strips one piece of lock
discipline -- a bug class the sanitizer alone owns (DESIGN.md §6) --
then drives the mutant from concurrent threads inside a
scoped sanitizer session and asserts a race is reported **with the
mutant's exact file and line**.  Detection is edge-based -- two
accesses race when no happens-before edge connects them and their
locksets are disjoint -- so where an exposing interleaving is not
guaranteed by the GIL alone, the test pins it with a barrier (which is
schedule-ordering but happens-before-invisible) instead of relying on
timing.

The unmutated counterparts run race-clean in
``tests/sanitizer/test_scenarios.py`` -- together the two files are the
sanitizer's false-negative and false-positive gates.
"""

from __future__ import annotations

import bisect
import inspect
import threading

from repro.common.metrics import MetricsRegistry
from repro.fabric.historydb import HistoryDB
from repro.sanitizer import runtime
from repro.sanitizer.scenarios import _fake_block
from repro.storage.kv.memstore import MemStore

_THIS_FILE = "test_mutation_acceptance.py"


def _line_of(func, marker: str) -> int:
    """Absolute line of the (unique) source line containing ``marker``."""
    source, start = inspect.getsourcelines(func)
    matches = [
        start + offset
        for offset, text in enumerate(source)
        if marker in text
    ]
    assert len(matches) == 1, f"marker {marker!r} not unique in {func}"
    return matches[0]


def _run_threads(count: int, target) -> list[BaseException]:
    """Run ``target(index)`` on ``count`` threads; return what they raised.

    A seeded race can crash a worker as well as be reported, so each
    caller says which crashes it expects -- none, or exactly its
    mutant's symptom -- instead of leaving them to the thread
    excepthook."""
    raised: list[BaseException] = []

    def run(index: int) -> None:
        try:
            target(index)
        except Exception as exc:  # handed to the caller
            raised.append(exc)

    threads = [
        threading.Thread(target=run, args=(index,)) for index in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return raised


def _witness_lines(report, cls: str, attr: str) -> set:
    """Every ``line`` either witness anchored in this file, per cell."""
    lines = set()
    for race in report.races:
        if race.cls == cls and race.attr == attr:
            for witness in (race.first, race.second):
                if witness.path.endswith(_THIS_FILE):
                    lines.add(witness.line)
    return lines


class UnsafeMetrics(MetricsRegistry):
    """Mutant: increment without the registry lock."""

    def increment(self, name: str, amount: int = 1) -> int:
        value = self._counters.get(name, 0) + amount
        self._counters[name] = value  # mutant: unlocked write
        return value


def test_unlocked_metrics_increment_is_caught_at_exact_line():
    expected = _line_of(UnsafeMetrics.increment, "mutant: unlocked write")
    with runtime.sanitized(seed=11) as sanitizer:
        registry = UnsafeMetrics()
        assert _run_threads(4, lambda index: [registry.increment("x") for _ in range(20)]) == []
        report = sanitizer.build_report(source="mutation", workers=4)
    assert report.races, "sanitizer missed the unlocked increment"
    assert expected in _witness_lines(report, "UnsafeMetrics", "_counters")
    # Both sides of the race ran lock-free: the witness must say so.
    racy = [
        race
        for race in report.races
        if race.attr == "_counters" and race.second.line == expected
    ]
    assert racy and all(
        not race.first.locks and not race.second.locks for race in racy
    )


class UnlockedTrimHistory(HistoryDB):
    """Mutant: drop a key's locations outside the index lock."""

    def forget(self, key: str) -> None:
        self._locations.pop(key, None)  # mutant: unlocked trim


def test_unlocked_history_trim_is_caught_at_exact_line():
    expected = _line_of(UnlockedTrimHistory.forget, "mutant: unlocked trim")
    with runtime.sanitized(seed=12) as sanitizer:
        history = UnlockedTrimHistory()

        def work(index: int) -> None:
            for step in range(15):
                key = f"key-{(index * 7 + step) % 8}"
                history.index_block(_fake_block(index * 100 + step, [key]))
                history.forget(key)

        assert _run_threads(4, work) == []
        report = sanitizer.build_report(source="mutation", workers=4)
    assert report.races, "sanitizer missed the unlocked trim"
    lines = _witness_lines(report, "UnlockedTrimHistory", "_locations")
    assert expected in lines
    # The racing partner holds HistoryDB._lock (the locked index write),
    # proving the lockset-disjointness logic, not just "no locks at all".
    assert any(
        "HistoryDB._lock" in (race.first.locks + race.second.locks)
        for race in report.races
        if race.attr == "_locations"
    )


def test_lsm_check_then_act_memtable_swap_is_caught_at_exact_line(tmp_path):
    from repro.storage.kv.lsm import LSMStore

    class RacyFlushStore(LSMStore):
        """Mutant: flush decision reads ``_memtable`` outside the lock."""

        def put(self, key: bytes, value: bytes) -> None:
            with self._lock:
                self._wal.append([(key, value)])
                self._memtable.write([(key, value)])
            # mutant: check-then-act -- the read below races a flush's
            # memtable rebind happening under the lock in another thread.
            if len(self._memtable) >= self._memtable_limit:  # mutant: unlocked check
                self.flush()

    expected = _line_of(
        RacyFlushStore.put.__wrapped__
        if hasattr(RacyFlushStore.put, "__wrapped__")
        else RacyFlushStore.put,
        "mutant: unlocked check",
    )
    with runtime.sanitized(seed=13) as sanitizer:
        store = RacyFlushStore(tmp_path, memtable_limit=2)
        # A barrier pins the exposing interleaving: the reader thread
        # ends on the unlocked check (its clock never published after
        # that read), then the flusher's put crosses the limit and
        # rebinds the memtable under the lock.  The barrier itself uses
        # untraced stdlib internals, so it orders the *schedule* without
        # adding a happens-before edge -- exactly a real pause between
        # the check and a competing flush.
        barrier = threading.Barrier(2)

        def reader() -> None:
            store.put(b"k1", b"v")  # len 1 < 2: the check does not flush
            barrier.wait()

        def flusher() -> None:
            barrier.wait()
            store.put(b"k2", b"v")  # len 2: flush swaps the memtable

        threads = [
            threading.Thread(target=reader),
            threading.Thread(target=flusher),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        report = sanitizer.build_report(source="mutation", workers=2)
    races = [race for race in report.races if race.attr == "_memtable"]
    assert races, "sanitizer missed the check-then-act memtable read"
    lines = set()
    for race in races:
        for witness in (race.first, race.second):
            if witness.path.endswith("test_mutation_acceptance.py"):
                lines.add(witness.line)
    assert expected in lines
    # One side must be the locked rebind inside LSMStore.flush.
    assert any(
        witness.path == "src/repro/storage/kv/lsm.py"
        and "LSMStore._lock" in witness.locks
        for race in races
        for witness in (race.first, race.second)
    )


class UnlockedPutStore(MemStore):
    """Mutant: the state-db ``put`` without the store lock."""

    def put(self, key: bytes, value: bytes) -> None:
        key = bytes(key)
        if key not in self._values:
            bisect.insort(self._sorted_keys, key)
        self._values[key] = bytes(value)  # mutant: unlocked put


def test_unlocked_memstore_put_is_caught_at_exact_line():
    # Two writers that never take the lock have no happens-before edge
    # between them, so their writes race whatever the schedule.
    expected = _line_of(UnlockedPutStore.put, "mutant: unlocked put")
    with runtime.sanitized(seed=16) as sanitizer:
        store = UnlockedPutStore()

        def work(index: int) -> None:
            for step in range(10):
                key = f"k{step % 4}".encode()
                if index % 2 == 0:
                    store.put(key, b"v")
                else:
                    store.get(key)

        assert _run_threads(4, work) == []
        report = sanitizer.build_report(source="mutation", workers=4)
    assert expected in _witness_lines(report, "UnlockedPutStore", "_values")


def test_mutant_races_do_not_leak_into_an_outer_session():
    # The REPRO_SAN=1 CI leg wraps the whole test session; a scoped
    # mutation session must keep its (intentional) races to itself.
    registry = UnsafeMetrics()
    with runtime.sanitized(seed=14) as outer:
        with runtime.sanitized(seed=15) as inner:
            assert _run_threads(2, lambda index: registry.increment("x")) == []
        inner_report = inner.build_report()
        outer_report = outer.build_report()
    assert inner_report.races
    assert not outer_report.races
