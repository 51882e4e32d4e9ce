"""Unit tests for the CFG/lockset layer under CONC003.

CFG shape is checked on hand-built functions; the
lockset edge cases -- multi-item ``with``, release in ``finally``,
conditional acquire -- run the real engine over tiny throwaway projects.
"""

from __future__ import annotations

import ast
import textwrap

from repro.analysis.cfg import build_cfg, lockset_for
from repro.analysis.cfg.builder import EXIT
from repro.analysis.project import build_project


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
