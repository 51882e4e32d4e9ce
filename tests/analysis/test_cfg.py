"""Unit tests for the CFG/lockset layer under CONC003 and TEMP001.

CFG shape and post-dominance are checked on hand-built functions; the
lockset edge cases -- multi-item ``with``, release in ``finally``,
conditional acquire -- run the real engine over tiny throwaway projects.
"""

from __future__ import annotations

import ast
import textwrap

from repro.analysis import run_lint
from repro.analysis.cfg import build_cfg, lockset_for, postdominators
from repro.analysis.cfg.builder import EXIT
from repro.analysis.project import build_project
from tests.analysis.helpers import find_lines


def _cfg(source):
    tree = ast.parse(textwrap.dedent(source))
    return build_cfg(tree.body[0])


def _only(nodes, why):
    assert len(nodes) == 1, f"{why}: {nodes}"
    return nodes[0]


def _stmt_node(cfg, fragment):
    """The unique simple-statement node whose source contains ``fragment``."""
    return _only(
        [
            node
            for node in cfg.real_nodes()
            if node.kind == "stmt"
            and node.stmt is not None
            and fragment in ast.unparse(node.stmt)
        ],
        f"expected exactly one stmt node containing {fragment!r}",
    )


def _kind_node(cfg, kind):
    """The unique node of ``kind`` in a tiny hand-built CFG."""
    return _only(
        [node for node in cfg.real_nodes() if node.kind == kind],
        f"expected exactly one {kind!r} node",
    )


class TestCFGShape:
    def test_if_without_else_falls_through(self):
        cfg = _cfg(
            """
            def f(x):
                if x:
                    a = 1
                b = 2
            """
        )
        test = _kind_node(cfg, "test")
        assert _stmt_node(cfg, "a = 1").index in test.succs
        assert _stmt_node(cfg, "b = 2").index in test.succs

    def test_return_routes_through_finally(self):
        cfg = _cfg(
            """
            def f():
                try:
                    return work()
                finally:
                    cleanup()
            """
        )
        ret = _stmt_node(cfg, "return work()")
        fin = _kind_node(cfg, "finally")
        cleanup = _stmt_node(cfg, "cleanup()")
        assert ret.succs == {fin.index}, "the return must detour into finally"
        assert EXIT in cleanup.succs, "the finally body completes the return"
        assert ret.index not in cfg.exit.preds

    def test_loop_header_always_keeps_the_exit_edge(self):
        # Even `while True:` -- the documented over-approximation.
        cfg = _cfg(
            """
            def f():
                while True:
                    work()
            """
        )
        header = _kind_node(cfg, "loop")
        assert EXIT in header.succs

    def test_break_jumps_past_the_loop(self):
        cfg = _cfg(
            """
            def f(x):
                while x:
                    break
                tail()
            """
        )
        brk = _stmt_node(cfg, "break")
        assert _stmt_node(cfg, "tail()").index in brk.succs

    def test_try_body_can_raise_into_its_handler(self):
        cfg = _cfg(
            """
            def f():
                try:
                    risky()
                except ValueError:
                    handle()
            """
        )
        risky = _stmt_node(cfg, "risky()")
        handler = _kind_node(cfg, "handler")
        assert handler.index in risky.succs

    def test_node_containing_finds_with_header_expressions(self):
        cfg = _cfg(
            """
            def f(lock):
                with lock:
                    work()
            """
        )
        func = cfg.func
        with_stmt = func.body[0]
        header = cfg.node_containing(with_stmt.items[0].context_expr)
        assert header is not None and header.kind == "with"


class TestPostDominance:
    def test_join_point_postdominates_the_branch(self):
        cfg = _cfg(
            """
            def f(x):
                if x:
                    a = 1
                else:
                    b = 2
                tail = 3
            """
        )
        pdom = postdominators(cfg)
        test = _kind_node(cfg, "test")
        tail = _stmt_node(cfg, "tail = 3")
        arm = _stmt_node(cfg, "a = 1")
        assert tail.index in pdom[test.index]
        assert arm.index not in pdom[test.index]

    def test_statement_after_an_early_return_does_not_postdominate(self):
        cfg = _cfg(
            """
            def f(x):
                first = 1
                if x:
                    return None
                tail = 3
            """
        )
        pdom = postdominators(cfg)
        first = _stmt_node(cfg, "first = 1")
        tail = _stmt_node(cfg, "tail = 3")
        assert tail.index not in pdom[first.index]


def _analysis(tmp_path, source):
    path = tmp_path / "mod.py"
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    project = build_project([path], root=tmp_path)
    return lockset_for(project)


def _held_attrs(summary, fragment):
    """Lock attr names held when the stmt node containing ``fragment``
    starts: the set CONC003 attributes that node's calls to."""
    node = _stmt_node(summary.cfg, fragment)
    return {lock.attr for lock in summary.held_before[node.index]}


def _call_held(summary):
    """Resolved callee -> lock attrs held at the call, as CONC003 reads it."""
    return {
        callee: {lock.attr for lock in held}
        for callee, _line, held in summary.calls
    }


class TestLocksetEdgeCases:
    def test_multi_item_with_orders_locks_left_to_right(self, tmp_path):
        analysis = _analysis(
            tmp_path,
            """
            import threading


            class Pair:
                \"\"\"Two locks, always taken a-then-b.\"\"\"

                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()
                    self.value = 0

                def bump(self):
                    \"\"\"One with statement, two acquisitions.\"\"\"
                    with self._a, self._b:
                        self.value += 1
            """,
        )
        summary = analysis.functions["mod.Pair.bump"]
        assert _held_attrs(summary, "self.value += 1") == {"_a", "_b"}

    def test_release_in_finally_clears_the_held_set(self, tmp_path):
        analysis = _analysis(
            tmp_path,
            """
            import threading


            class Guarded:
                \"\"\"Explicit acquire/release in the try/finally idiom.\"\"\"

                def __init__(self):
                    self._lock = threading.Lock()
                    self.value = 0

                def update(self):
                    \"\"\"Acquire, work, release in finally, then run unlocked.\"\"\"
                    self._lock.acquire()
                    try:
                        self.tick()
                    finally:
                        self._lock.release()
                    self.tail()

                def tick(self):
                    \"\"\"Runs with the caller's lock held.\"\"\"

                def tail(self):
                    \"\"\"Runs after the release.\"\"\"
            """,
        )
        summary = analysis.functions["mod.Guarded.update"]
        assert _held_attrs(summary, "self.tick()") == {"_lock"}
        assert _held_attrs(summary, "self.tail()") == set()
        assert _call_held(summary) == {
            "mod.Guarded.tick": {"_lock"},
            "mod.Guarded.tail": set(),
        }

    def test_conditional_acquire_does_not_leak_past_the_with(self, tmp_path):
        analysis = _analysis(
            tmp_path,
            """
            import threading


            class Switch:
                \"\"\"Locks only the slow path.\"\"\"

                def __init__(self):
                    self._lock = threading.Lock()
                    self.value = 0

                def maybe(self, fast):
                    \"\"\"Lock held on one arm, never afterwards.\"\"\"
                    if fast:
                        self.tick()
                    else:
                        with self._lock:
                            self.value += 1
                    self.tail()

                def tick(self):
                    \"\"\"Fast path.\"\"\"

                def tail(self):
                    \"\"\"Join point: no lock may be reported held here.\"\"\"
            """,
        )
        summary = analysis.functions["mod.Switch.maybe"]
        assert _held_attrs(summary, "self.value += 1") == {"_lock"}
        assert _held_attrs(summary, "self.tick()") == set()
        assert _held_attrs(summary, "self.tail()") == set()
        assert _call_held(summary) == {
            "mod.Switch.tick": set(),
            "mod.Switch.tail": set(),
        }


class TestTombstonePostDominance:
    def test_conditional_early_return_between_write_and_clear_fires(self, tmp_path):
        # The rewrite's headline catch: the old same-block scan saw the
        # clear below the write and accepted; on the CFG the early
        # return means the clear does not post-dominate the write.
        temporal = tmp_path / "temporal"
        temporal.mkdir()
        source = textwrap.dedent(
            """
            \"\"\"Ingest with an early return between write and tombstone.\"\"\"


            def ingest(gateway, key, theta, bundle, budget):
                \"\"\"The write escapes its tombstone when the budget runs out.\"\"\"
                gateway.submit("index", "write_index", key, theta, bundle)
                if budget.exhausted():
                    return None
                gateway.submit("index", "clear_index", key, theta)
            """
        )
        (temporal / "m1.py").write_text(source, encoding="utf-8")
        write_line = _only(
            [
                number
                for number, line in enumerate(source.splitlines(), start=1)
                if "write_index" in line
            ],
            "expected exactly one write in the fixture",
        )
        result = run_lint([temporal], root=tmp_path)
        assert find_lines(result.new_findings, "TEMP001") == [write_line]
