"""The interprocedural engine itself: symbols, call resolution, taint.

The rule-level behavior is covered by the fixture trees in
test_rules.py; these tests pin down the engine's building blocks --
cross-file base resolution, call edges through attributes and
constructors, and taint summaries -- so a regression is reported at the
layer that broke, not as a mysterious missing finding three layers up.
"""

from __future__ import annotations

import ast

from repro.analysis.dataflow import CallGraph, SymbolTable, taint_for
from repro.analysis.project import build_project


def project_from(tmp_path, files):
    """Materialize ``{relpath: source}`` and parse it as one project."""
    for relpath, text in files.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text)
    return build_project([tmp_path], root=tmp_path)


class TestSymbolTable:
    def test_cross_file_base_resolution(self, tmp_path):
        table = SymbolTable.build(
            project_from(
                tmp_path,
                {
                    "pkg/base.py": "class Chaincode:\n    pass\n",
                    "pkg/impl.py": (
                        "from pkg.base import Chaincode\n\n\n"
                        "class Mine(Chaincode):\n"
                        "    def invoke(self, stub):\n"
                        "        return stub\n"
                    ),
                },
            )
        )
        mine = table.classes["pkg.impl.Mine"]
        assert mine.base_qualnames == ["pkg.base.Chaincode"]
        assert "Chaincode" in table.mro_names("pkg.impl.Mine")
        assert [info.qualname for info in table.chaincode_classes()] == [
            "pkg.impl.Mine"
        ]

    def test_unresolved_base_still_contributes_its_name(self, tmp_path):
        table = SymbolTable.build(
            project_from(
                tmp_path,
                {
                    "solo.py": (
                        "from elsewhere import Chaincode\n\n\n"
                        "class Far(Chaincode):\n"
                        "    pass\n"
                    ),
                },
            )
        )
        assert [info.name for info in table.chaincode_classes()] == ["Far"]

    def test_attr_types_from_annotations_and_construction(self, tmp_path):
        table = SymbolTable.build(
            project_from(
                tmp_path,
                {
                    "wires.py": (
                        "class Engine:\n"
                        "    def go(self):\n"
                        "        return 1\n\n\n"
                        "class Holder:\n"
                        "    def __init__(self, engine: Engine):\n"
                        "        self._engine = engine\n"
                        "        self._spare = Engine()\n"
                    ),
                },
            )
        )
        holder = table.classes["wires.Holder"]
        assert holder.attr_types["_engine"] == "wires.Engine"
        assert holder.attr_types["_spare"] == "wires.Engine"

    def test_method_lookup_follows_bases(self, tmp_path):
        table = SymbolTable.build(
            project_from(
                tmp_path,
                {
                    "a.py": "class Base:\n    def shared(self):\n        return 1\n",
                    "b.py": (
                        "from a import Base\n\n\n"
                        "class Child(Base):\n    pass\n"
                    ),
                },
            )
        )
        method = table.method_on("b.Child", "shared")
        assert method is not None and method.qualname == "a.Base.shared"


class TestCallGraph:
    def test_edges_through_attrs_params_and_constructors(self, tmp_path):
        table = SymbolTable.build(
            project_from(
                tmp_path,
                {
                    "core.py": (
                        "class Ledger:\n"
                        "    def append(self, item):\n"
                        "        return item\n"
                    ),
                    "app.py": (
                        "from core import Ledger\n\n\n"
                        "def helper(value):\n"
                        "    return value\n\n\n"
                        "class Indexer:\n"
                        "    def __init__(self):\n"
                        "        self._ledger = Ledger()\n\n"
                        "    def run(self, ledger: Ledger):\n"
                        "        helper(1)\n"
                        "        self._ledger.append(1)\n"
                        "        ledger.append(2)\n"
                        "        local = Ledger()\n"
                        "        local.append(3)\n"
                        "        return self.run_once()\n\n"
                        "    def run_once(self):\n"
                        "        return 0\n"
                    ),
                },
            )
        )
        graph = CallGraph(table)
        run = table.functions["app.Indexer.run"]
        callees = {
            graph.resolve_call(run, call)
            for call in ast.walk(run.node)
            if isinstance(call, ast.Call)
        }
        assert callees == {
            "app.helper",
            "core.Ledger.append",
            "core.Ledger",  # local Ledger() construction, no __init__
            "app.Indexer.run_once",
        }


class TestTaint:
    def build(self, tmp_path, files):
        project = project_from(tmp_path, files)
        return taint_for(project)

    def test_two_hop_return_chain_reaches_the_sink(self, tmp_path):
        analysis = self.build(
            tmp_path,
            {
                "flow.py": (
                    "import time\n\n\n"
                    "def clock():\n"
                    "    return time.time()\n\n\n"
                    "def stamp():\n"
                    "    return clock()\n\n\n"
                    "class CC:\n"
                    "    def invoke(self, stub, key):\n"
                    "        value = stamp()\n"
                    "        stub.put_state(key, value)\n"
                    "        return value\n"
                ),
            },
        )
        assert analysis.summary("flow.clock").tainted_returns
        assert analysis.summary("flow.stamp").tainted_returns
        hits = analysis.summary("flow.CC.invoke").sink_hits
        assert len(hits) == 1
        hit = next(iter(hits))
        assert hit.sink == "put_state"
        assert hit.source.kind == "time.time"
        assert hit.source.chain == ("clock", "stamp")

    def test_helper_sink_bubbles_to_the_call_site(self, tmp_path):
        analysis = self.build(
            tmp_path,
            {
                "flow.py": (
                    "import random\n\n\n"
                    "def commit(stub, key, value):\n"
                    "    stub.put_state(key, value)\n\n\n"
                    "class CC:\n"
                    "    def invoke(self, stub, key):\n"
                    "        commit(stub, key, random.random())\n"
                ),
            },
        )
        summary = analysis.summary("flow.commit")
        assert any(
            entry.sink == "put_state"
            for entries in summary.params_to_sink.values()
            for entry in entries
        )
        hits = analysis.summary("flow.CC.invoke").sink_hits
        assert len(hits) == 1
        hit = next(iter(hits))
        assert hit.via and hit.via[-1].endswith("commit")

    def test_sorted_sanitizes_set_iteration_order(self, tmp_path):
        analysis = self.build(
            tmp_path,
            {
                "flow.py": (
                    "class CC:\n"
                    "    def tidy(self, stub, args):\n"
                    "        for key in sorted(set(args)):\n"
                    "            stub.put_state(key, 1)\n\n"
                    "    def messy(self, stub, args):\n"
                    "        for key in set(args):\n"
                    "            stub.put_state(key, 1)\n"
                ),
            },
        )
        assert not analysis.summary("flow.CC.tidy").sink_hits
        messy = analysis.summary("flow.CC.messy").sink_hits
        assert messy and all("set iteration" in h.source.kind for h in messy)

    def test_deterministic_code_stays_clean(self, tmp_path):
        analysis = self.build(
            tmp_path,
            {
                "flow.py": (
                    "def shape(key):\n"
                    "    return f'k:{key}'\n\n\n"
                    "class CC:\n"
                    "    def invoke(self, stub, key, value):\n"
                    "        stub.put_state(shape(key), value)\n"
                ),
            },
        )
        assert not analysis.summary("flow.CC.invoke").sink_hits

    def test_unknown_function_gets_an_empty_summary(self, tmp_path):
        analysis = self.build(tmp_path, {"empty.py": "x = 1\n"})
        summary = analysis.summary("nowhere.f")
        assert not summary.sink_hits and not summary.tainted_returns
