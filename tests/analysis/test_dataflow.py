"""The interprocedural engine itself: symbols, call graph, taint, cache.

The rule-level behavior is covered by the fixture trees in
test_rules.py; these tests pin down the engine's building blocks --
cross-file base resolution, call edges through attributes and
constructors, taint summaries, and the mtime+SHA result cache -- so a
regression is reported at the layer that broke, not as a mysterious
missing finding three layers up.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import run_lint
from repro.analysis.dataflow import CallGraph, SymbolTable, dataflow_for
from repro.analysis.dataflow.cache import (
    CACHE_SCHEMA,
    LintCache,
    compute_stamps,
    run_fingerprint,
)
from repro.analysis.project import build_project

REPO_SRC = Path(__file__).resolve().parents[2] / "src"


def project_from(tmp_path, files):
    """Materialize ``{relpath: source}`` and parse it as one project."""
    for relpath, text in files.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text)
    return build_project([tmp_path], root=tmp_path)


@pytest.fixture(scope="module")
def real_analysis():
    """One shared analysis of the actual source tree (it is immutable
    from the tests' point of view, and building it costs ~2s)."""
    project = build_project([REPO_SRC], root=REPO_SRC.parent)
    return dataflow_for(project)


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
                        "import threading\n\n\n"
                        "class Engine:\n"
                        "    def go(self):\n"
                        "        return 1\n\n\n"
                        "class Holder:\n"
                        "    def __init__(self, engine: Engine):\n"
                        "        self._engine = engine\n"
                        "        self._spare = Engine()\n"
                        "        self._lock = threading.Lock()\n"
                    ),
                },
            )
        )
        holder = table.classes["wires.Holder"]
        assert holder.attr_types["_engine"] == "wires.Engine"
        assert holder.attr_types["_spare"] == "wires.Engine"
        assert holder.lock_attrs == {"_lock"}

    def test_real_tree_recognizes_query_path_lock_carriers(self, real_analysis):
        """Every lock-carrying class on the query path must
        be visible to the symbol table, or CONC001 silently stops policing
        its attribute writes."""
        classes = real_analysis.table.classes
        expectations = {
            "repro.common.metrics.MetricsRegistry": "_lock",
            "repro.fabric.blockcache.BlockCache": "_lock",
            "repro.fabric.historydb.HistoryDB": "_lock",
        }
        for qualname, lock_attr in expectations.items():
            assert qualname in classes, qualname
            assert lock_attr in classes[qualname].lock_attrs, qualname

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
        graph = CallGraph.build(table)
        callees = {edge.callee for edge in graph.callees_of("app.Indexer.run")}
        assert callees == {
            "app.helper",
            "core.Ledger.append",
            "core.Ledger",  # local Ledger() construction, no __init__
            "app.Indexer.run_once",
        }
        assert ("Indexer", "Ledger") in graph.class_edges()

    def test_real_tree_has_the_indexer_to_ledger_chain(self, real_analysis):
        graph = real_analysis.graph
        class_edges = set(graph.class_edges())
        assert ("M1Indexer", "Gateway") in class_edges
        reachable = graph.reachable_scopes("M1Indexer")
        assert "Ledger" in reachable, (
            "the indexer must reach the ledger through the gateway/peer chain"
        )

    def test_dot_export_is_a_digraph_with_the_chain(self, real_analysis):
        dot = real_analysis.graph.to_dot()
        assert dot.startswith("digraph callgraph {")
        assert '"M1Indexer" -> "Gateway";' in dot

    def test_json_export_round_trips(self, real_analysis):
        document = json.loads(real_analysis.graph.to_json())
        assert document["version"] == 1
        assert ["M1Indexer", "Gateway"] in document["class_edges"]
        edges = {(e["caller"], e["callee"]) for e in document["edges"]}
        assert all(isinstance(e["line"], int) for e in document["edges"])
        assert len(edges) > 100  # the real tree resolves a dense graph


class TestTaint:
    def build(self, tmp_path, files):
        project = project_from(tmp_path, files)
        return dataflow_for(project)

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


class TestResultCache:
    FILES = {
        "src/app.py": (
            "import time\n\n"
            "from repro.fabric.chaincode import Chaincode\n\n\n"
            "class CC(Chaincode):\n"
            "    def invoke(self, stub, key):\n"
            "        stub.put_state(key, time.time())\n"
        ),
    }

    def seed(self, tmp_path):
        for relpath, text in self.FILES.items():
            target = tmp_path / relpath
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(text)
        return tmp_path / "src", tmp_path / "cache.json"

    def run(self, src, cache, **kwargs):
        return run_lint([src], root=src.parent, cache_path=cache, **kwargs)

    def test_second_run_replays_from_cache(self, tmp_path):
        src, cache = self.seed(tmp_path)
        first = self.run(src, cache)
        assert not first.from_cache and not first.ok
        second = self.run(src, cache)
        assert second.from_cache
        assert [f.to_json() for f in second.new_findings] == [
            f.to_json() for f in first.new_findings
        ]
        assert second.files_checked == first.files_checked

    def test_edited_file_invalidates(self, tmp_path):
        src, cache = self.seed(tmp_path)
        self.run(src, cache)
        (src / "app.py").write_text('"""All clean now."""\n')
        rerun = self.run(src, cache)
        assert not rerun.from_cache and rerun.ok

    def test_selection_change_invalidates(self, tmp_path):
        src, cache = self.seed(tmp_path)
        self.run(src, cache)
        selected = self.run(src, cache, select=["CHAIN"])
        assert not selected.from_cache

    def test_analyzer_edit_invalidates(self, tmp_path, monkeypatch):
        """The analyzer's own source is an input of the run: editing a
        rule (or a table a rule reads) must not replay the old result."""
        from repro.analysis import runner

        src, cache = self.seed(tmp_path)
        self.run(src, cache)
        assert self.run(src, cache).from_cache
        monkeypatch.setattr(runner, "analyzer_digest", lambda: "edited")
        assert not self.run(src, cache).from_cache
        assert self.run(src, cache).from_cache

    def test_analyzer_digest_covers_nested_analysis_modules(
        self, tmp_path, monkeypatch
    ):
        from repro.analysis.dataflow import cache as cache_module

        assert cache_module.analyzer_digest() == cache_module.analyzer_digest()
        # Point the function at a stand-in package: <pkg>/dataflow/cache.py.
        package = tmp_path / "analysis"
        table = package / "rules" / "tables.py"
        for path in (package / "dataflow" / "cache.py", table):
            path.parent.mkdir(parents=True)
            path.write_text("ROWS = ('a',)\n")
        monkeypatch.setattr(
            cache_module, "__file__", str(package / "dataflow" / "cache.py")
        )
        before = cache_module.analyzer_digest()
        table.write_text("ROWS = ()\n")
        assert cache_module.analyzer_digest() != before

    def test_fingerprint_tracks_the_analyzer(self, tmp_path):
        src, _ = self.seed(tmp_path)
        stamps = compute_stamps(sorted(src.rglob("*.py")), src.parent)
        assert run_fingerprint(stamps, [], "a") != run_fingerprint(stamps, [], "b")

    def test_corrupt_cache_is_ignored(self, tmp_path):
        src, cache = self.seed(tmp_path)
        self.run(src, cache)
        cache.write_text("{not json")
        rerun = self.run(src, cache)
        assert not rerun.from_cache and not rerun.ok

    def test_stale_schema_is_ignored(self, tmp_path):
        src, cache = self.seed(tmp_path)
        self.run(src, cache)
        payload = json.loads(cache.read_text())
        payload["schema"] = CACHE_SCHEMA - 1
        cache.write_text(json.dumps(payload))
        assert LintCache(cache).lookup(payload["fingerprint"]) is None

    def test_fingerprint_tracks_content_not_mtime(self, tmp_path):
        src, cache = self.seed(tmp_path)
        files = sorted(src.rglob("*.py"))
        stamps = compute_stamps(files, src.parent)
        fp = run_fingerprint(stamps, [], "a")
        # Touch without changing content: same fingerprint.
        (src / "app.py").touch()
        stamps2 = compute_stamps(files, src.parent)
        assert run_fingerprint(stamps2, [], "a") == fp
        # Change content: different fingerprint.
        (src / "app.py").write_text("x = 2\n")
        stamps3 = compute_stamps(files, src.parent)
        assert run_fingerprint(stamps3, [], "a") != fp
