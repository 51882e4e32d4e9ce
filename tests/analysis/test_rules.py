"""Per-rule behavior on the seeded good/bad fixture snippets.

Every bad fixture line carries an ``# expect: RULE`` marker; the tests
assert the analyzer reports exactly those (rule id, line) pairs and
nothing else, and that the good fixtures come back clean.
"""

from __future__ import annotations

import shutil

import pytest

from repro.analysis import all_rules, run_lint
from repro.analysis.rules.concurrency import BLOCKING_ALLOWLIST
from tests.analysis.helpers import (
    FIXTURES,
    assert_matches_expectations,
    expected_findings,
    find_lines,
    lint_fixture_tree,
)


def test_registry_exposes_the_documented_rule_families():
    rules = all_rules()
    assert {
        "CHAIN001",
        "DUR001",
        "DUR002",
        "CRASH001",
        "ERR001",
        "DET002",
        "TEMP001",
        "CONC001",
        "CONC003",
        "RES001",
    } == set(rules)
    for rule_id, rule_class in rules.items():
        assert rule_class.rule_id == rule_id
        assert rule_class.__doc__, f"{rule_id} has no docstring for --explain"


class TestChaincodeDeterminism:
    def test_bad_chaincode_flags_every_marked_line(self):
        result = lint_fixture_tree("chaincode")
        assert_matches_expectations(
            result,
            FIXTURES / "chaincode" / "bad_chaincode.py",
            FIXTURES / "chaincode" / "good_chaincode.py",
        )

    def test_bad_chaincode_expectations_are_nontrivial(self):
        expected = expected_findings(FIXTURES / "chaincode" / "bad_chaincode.py")
        assert len(expected) >= 7  # clock, random, env, uuid, datetime, 2 set loops

    def test_nondeterministic_branch_is_convicted_by_chain001_alone(self):
        # Why CHAIN001 is not retired in favour of DET002: a coin toss
        # deciding *whether* a constant is written taints no value, so
        # the interprocedural rule has nothing to follow to the sink.
        fixture = FIXTURES / "chaincode" / "bad_chaincode.py"
        branch = 1 + fixture.read_text().splitlines().index(
            "        if random.random() < 0.5:  # expect: CHAIN001"
        )
        on_the_branch = {
            finding.rule_id
            for finding in lint_fixture_tree("chaincode").new_findings
            if finding.path.endswith("bad_chaincode.py")
            and finding.line in (branch, branch + 1)  # the test, the write
        }
        assert on_the_branch == {"CHAIN001"}

    def test_suppressed_violation_is_reported_as_suppressed(self):
        result = lint_fixture_tree("chaincode")
        suppressed = [
            finding
            for finding in result.suppressed
            if finding.path.endswith("good_chaincode.py")
        ]
        assert find_lines(suppressed, "CHAIN001"), (
            "the disable=CHAIN001 line should surface in result.suppressed"
        )


class TestInterproceduralDeterminism:
    def test_two_hop_flows_match_expectations(self):
        result = lint_fixture_tree("dataflow")
        assert_matches_expectations(
            result,
            FIXTURES / "dataflow" / "helpers.py",
            FIXTURES / "dataflow" / "pipeline_chaincode.py",
        )

    def test_chain001_stays_silent_on_laundered_flows(self):
        # The whole point of DET002: no banned API appears inside the
        # chaincode class, so the per-file rule cannot fire.
        result = lint_fixture_tree("dataflow")
        assert not find_lines(result.new_findings, "CHAIN001")

    def test_messages_name_source_and_chain(self):
        result = lint_fixture_tree("dataflow")
        messages = "\n".join(
            finding.message
            for finding in result.new_findings
            if finding.rule_id == "DET002"
        )
        assert "time.time" in messages
        assert "clock -> stamp" in messages
        assert "commit" in messages


class TestTemporalModelInvariants:
    def test_ingest_and_interval_fixtures_match_expectations(self):
        result = lint_fixture_tree("temporal_model")
        assert_matches_expectations(
            result,
            FIXTURES / "temporal_model" / "temporal" / "m1.py",
            FIXTURES / "temporal_model" / "temporal" / "queries.py",
            FIXTURES / "temporal_model" / "temporal" / "intervals.py",
        )

    def test_rule_only_polices_temporal_paths(self, tmp_path):
        elsewhere = tmp_path / "tools"
        elsewhere.mkdir()
        shutil.copy(
            FIXTURES / "temporal_model" / "temporal" / "queries.py", elsewhere
        )
        result = run_lint([elsewhere], root=tmp_path)
        assert not find_lines(result.new_findings, "TEMP001")


class TestLockedAttributeWrites:
    def test_concurrency_fixtures_match_expectations(self):
        result = lint_fixture_tree("concurrency")
        assert_matches_expectations(
            result, FIXTURES / "concurrency" / "workers.py"
        )

    def test_message_offers_both_escapes(self):
        result = lint_fixture_tree("concurrency")
        message = next(
            finding.message
            for finding in result.new_findings
            if finding.rule_id == "CONC001"
        )
        assert "with self._lock" in message
        assert "_locked" in message


class TestLockOrderAndBlocking:
    """CONC003: the CFG+lockset rule."""

    def test_lockorder_fixtures_match_expectations(self):
        result = lint_fixture_tree("lockorder")
        assert_matches_expectations(
            result, FIXTURES / "lockorder" / "blocking.py"
        )

    def test_blocking_message_names_the_call_chain(self):
        # The helper-hidden sleep must report the chain down to the
        # sleeping callee, not just the innocent-looking call line.
        result = lint_fixture_tree("lockorder")
        message = next(
            finding.message
            for finding in result.new_findings
            if finding.rule_id == "CONC003" and finding.line == 52
        )
        assert "via" in message
        assert "_retry" in message

    def test_allowlist_row_that_suppresses_nothing_is_a_finding(self, monkeypatch):
        # A row naming a function that blocks only after releasing its
        # lock excuses nothing: the rule reports the row at the function,
        # so the table cannot outlive the code it was written for.  A
        # row that does suppress a blocking call stays silent.
        monkeypatch.setitem(
            BLOCKING_ALLOWLIST,
            "lockorder.blocking.Worker.nap_after_lock",
            (frozenset({"sleep"}), "fixture: sleeps after the release"),
        )
        monkeypatch.setitem(
            BLOCKING_ALLOWLIST,
            "lockorder.blocking.Worker.nap_under_lock",
            (frozenset({"sleep"}), "fixture: sleeps under the lock"),
        )
        fixture = FIXTURES / "lockorder" / "blocking.py"
        lines = fixture.read_text().splitlines()
        stale_line = 1 + lines.index("    def nap_after_lock(self):")
        nap_line = 1 + lines.index("            time.sleep(0.1)  # expect: CONC003")
        result = lint_fixture_tree("lockorder")
        found = {
            (finding.line, finding.message)
            for finding in result.new_findings
            if finding.rule_id == "CONC003"
        }
        stale = [message for line, message in found if line == stale_line]
        assert len(stale) == 1, sorted(found)
        assert "Worker.nap_after_lock()" in stale[0]
        assert "delete the stale row" in stale[0]
        assert nap_line not in {line for line, _ in found}


class TestSelectValidation:
    """A --select that matches nothing must be a usage error, not a
    vacuous pass (the CI gate runs `repro lint --select CONC`)."""

    @pytest.fixture()
    def tiny_project(self, tmp_path):
        (tmp_path / "app.py").write_text('"""Nothing to lint."""\n')
        return tmp_path

    def test_blank_selection_is_a_usage_error(self, tiny_project):
        with pytest.raises(KeyError, match="empty --select"):
            run_lint([tiny_project], root=tiny_project, select=[""])

    def test_whitespace_only_selection_is_a_usage_error(self, tiny_project):
        with pytest.raises(KeyError, match="empty --select"):
            run_lint([tiny_project], root=tiny_project, select=[" ", ""])

    def test_unknown_prefix_is_a_usage_error(self, tiny_project):
        with pytest.raises(KeyError, match="NOPE999"):
            run_lint([tiny_project], root=tiny_project, select=["NOPE999"])

    def test_blank_selection_rejected_even_on_a_warm_cache(self, tiny_project):
        # The validation must run before the cache lookup: a fingerprint
        # cannot tell a blank selection from "all rules".
        cache = tiny_project / "cache.json"
        first = run_lint([tiny_project], root=tiny_project, cache_path=cache)
        assert not first.from_cache
        warm = run_lint([tiny_project], root=tiny_project, cache_path=cache)
        assert warm.from_cache
        with pytest.raises(KeyError, match="empty --select"):
            run_lint(
                [tiny_project], root=tiny_project, select=[""], cache_path=cache
            )


class TestSeamHandleLifetimes:
    def test_resource_fixtures_match_expectations(self):
        result = lint_fixture_tree("resources")
        assert_matches_expectations(
            result, FIXTURES / "resources" / "handles.py"
        )

    def test_happy_path_close_message_points_at_finally(self):
        result = lint_fixture_tree("resources")
        messages = [
            finding.message
            for finding in result.new_findings
            if finding.rule_id == "RES001"
        ]
        assert any("happy path" in message for message in messages)


class TestDurability:
    def test_storage_fixtures_match_expectations(self):
        result = lint_fixture_tree("repro")
        assert_matches_expectations(
            result,
            FIXTURES / "repro" / "storage" / "bad_writes.py",
            FIXTURES / "repro" / "storage" / "good_writes.py",
        )

    def test_rules_only_police_the_write_path(self, tmp_path):
        # The same seam-bypassing code outside repro/storage|fabric|faults
        # is none of DUR001/DUR002's business.
        elsewhere = tmp_path / "tools"
        elsewhere.mkdir()
        shutil.copy(FIXTURES / "repro" / "storage" / "bad_writes.py", elsewhere)
        result = run_lint([elsewhere], root=tmp_path)
        assert not find_lines(result.new_findings, "DUR001")
        assert not find_lines(result.new_findings, "DUR002")

    def test_previous_line_suppression_form(self):
        result = lint_fixture_tree("repro")
        suppressed = [
            finding
            for finding in result.suppressed
            if finding.path.endswith("good_writes.py")
        ]
        assert find_lines(suppressed, "DUR001")


class TestSwallowedExceptions:
    def test_error_fixtures_match_expectations(self):
        result = lint_fixture_tree("errors")
        assert_matches_expectations(
            result,
            FIXTURES / "errors" / "bad_excepts.py",
            FIXTURES / "errors" / "good_excepts.py",
        )


class TestCrashPointCoverage:
    ROOT = FIXTURES / "crashproj"

    def lint(self, root=None):
        return run_lint([(root or self.ROOT) / "src"], root=root or self.ROOT)

    def test_registry_drift_is_reported(self):
        result = self.lint()
        registry = "src/repro/faults/crashpoints.py"
        write_path = "src/repro/fabric/write_path.py"
        by_file = {
            registry: sorted(
                finding.line
                for finding in result.new_findings
                if finding.path == registry
            ),
            write_path: sorted(
                finding.line
                for finding in result.new_findings
                if finding.path == write_path
            ),
        }
        expected_registry = sorted(
            line
            for _, line in expected_findings(self.ROOT / "src/repro/faults/crashpoints.py")
        )
        expected_write = sorted(
            line
            for _, line in expected_findings(self.ROOT / "src/repro/fabric/write_path.py")
        )
        assert by_file[registry] == expected_registry
        assert by_file[write_path] == expected_write
        assert all(
            finding.rule_id == "CRASH001" for finding in result.new_findings
        )

    def test_messages_name_the_failure_modes(self):
        result = self.lint()
        messages = "\n".join(finding.message for finding in result.new_findings)
        assert "registry does not know" in messages  # fired-but-unregistered
        assert "no crash_point() call site fires it" in messages
        assert "missing from the swept tuples" in messages

    def test_unreferenced_sweep_tuple_is_flagged(self, tmp_path):
        clone = tmp_path / "crashproj"
        shutil.copytree(self.ROOT, clone)
        (clone / "tests" / "faults" / "sweep_reference.py").unlink()
        result = self.lint(root=clone)
        messages = [finding.message for finding in result.new_findings]
        assert any("not referenced by any test under tests/faults/" in m for m in messages)

    def test_rule_is_silent_without_a_registry(self, tmp_path):
        lonely = tmp_path / "proj" / "src"
        lonely.mkdir(parents=True)
        (lonely / "app.py").write_text('"""No registry here."""\n')
        result = run_lint([lonely], root=tmp_path / "proj")
        assert not find_lines(result.new_findings, "CRASH001")


def _clone_real_tree(dest):
    """A copy of the real ``src/`` tree under ``dest/proj``."""
    import repro

    src = FIXTURES.parent.parent.parent / "src"
    assert (src / "repro").is_dir(), f"cannot locate real source tree near {repro.__file__}"
    clone = dest / "proj"
    shutil.copytree(src, clone / "src")
    return clone


def _seed(target, anchor, insertion, marker):
    """Insert ``insertion`` before the first ``anchor`` in ``target`` and
    return the line the inserted ``marker`` lands on."""
    text = target.read_text()
    position = text.index(anchor)
    target.write_text(text[:position] + insertion + text[position:])
    before = text[:position] + insertion[: insertion.index(marker)]
    return before.count("\n") + 1


def _assert_conc001(result, expected, attr):
    """The CONC clone's findings are exactly the seeded CONC001 sites,
    and ``attr``'s lands at its exact ``file:line``."""
    found = {
        (finding.rule_id, finding.path, finding.line)
        for finding in result.new_findings
    }
    assert found == {
        ("CONC001", path, line) for path, line in expected.values()
    }, result.render_text()
    path, line = expected[attr]
    message = next(
        finding.message
        for finding in result.new_findings
        if (finding.path, finding.line) == (path, line)
    )
    assert f"self.{attr}" in message


class TestMutationAcceptance:
    """The acceptance criteria from the issue, verbatim: injecting a raw
    open() into src/repro/storage/ or an unregistered crash point must
    turn the lint red."""

    @pytest.fixture()
    def real_tree(self, tmp_path):
        return _clone_real_tree(tmp_path)

    @pytest.fixture(scope="class")
    def conc001_mutants(self, tmp_path_factory):
        """One clone carrying every CONC001 mutant, linted once: three
        new methods that rebind shared state without the class lock."""
        clone = _clone_real_tree(tmp_path_factory.mktemp("conc001"))
        fabric = clone / "src" / "repro" / "fabric"
        expected = {
            "retries_attempted": (
                "src/repro/fabric/gateway.py",
                _seed(
                    fabric / "gateway.py",
                    "    def evaluate_transaction(",
                    "    def reset_retries(self):\n"
                    '        """Racy counter reset (deliberately unlocked)."""\n'
                    "        self.retries_attempted = 0\n\n",
                    "self.retries_attempted = 0",
                ),
            ),
            "capacity": (
                "src/repro/fabric/blockcache.py",
                _seed(
                    fabric / "blockcache.py",
                    "    def invalidate(self",
                    "    def resize(self, capacity):\n"
                    '        """Racy capacity rebind (deliberately unlocked)."""\n'
                    "        self.capacity = capacity\n\n",
                    "self.capacity = capacity",
                ),
            ),
            # MetricsRegistry was converted from a dataclass to an
            # explicit __init__ precisely so its lock is visible to the
            # symbol table; this mutant proves CONC001 polices it.
            "_counters": (
                "src/repro/common/metrics.py",
                _seed(
                    clone / "src" / "repro" / "common" / "metrics.py",
                    "    def increment(self",
                    "    def hard_reset(self):\n"
                    '        """Racy rebind of the counter dict (unlocked)."""\n'
                    "        self._counters = {}\n\n",
                    "self._counters = {}",
                ),
            ),
        }
        result = run_lint([clone / "src"], root=clone, select=("CONC",))
        return result, expected

    @pytest.fixture(scope="class")
    def conc003_mutants(self, tmp_path_factory):
        """One clone carrying both CONC003 mutants, linted once: a new
        cache that naps under its lock, and a sleep inside
        ``MetricsRegistry.increment``'s locked region."""
        clone = _clone_real_tree(tmp_path_factory.mktemp("conc003"))
        # The resilience layer's contract: backoff sleeps happen outside
        # any lock.  A helper that naps while holding its lock -- the
        # classic way one slow retry stalls every other thread.
        (clone / "src" / "repro" / "storage" / "napping.py").write_text(
            '"""A cache that backs off while holding its lock."""\n\n'
            "import threading\n"
            "import time\n\n\n"
            "class NappingCache:\n"
            '    """Serializes writers, then sleeps on their time."""\n\n'
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._data = {}\n\n"
            "    def put(self, key, value):\n"
            '        """Stores after an in-lock settle delay."""\n'
            "        with self._lock:\n"
            "            time.sleep(0.05)\n"
            "            self._data[key] = value\n"
        )
        # The counter hot path would serialize every worker thread.
        metrics = clone / "src" / "repro" / "common" / "metrics.py"
        _seed(
            metrics,
            "from contextlib import contextmanager\n",
            "import time\n\n",
            "import time",
        )
        sleep_line = _seed(
            metrics,
            "            value = self._counters.get(name, 0) + amount\n",
            "            time.sleep(0.001)\n",
            "time.sleep(0.001)",
        )
        result = run_lint([clone / "src"], root=clone, select=("CONC",))
        return result, sleep_line

    def test_clean_clone_is_clean(self, real_tree):
        result = run_lint([real_tree / "src"], root=real_tree)
        assert result.ok, result.render_text()

    def test_injected_raw_open_fails_the_lint(self, real_tree):
        bad = real_tree / "src" / "repro" / "storage" / "sneaky.py"
        bad.write_text(
            '"""A write path added without the seam."""\n\n\n'
            "def persist(path, data):\n"
            '    """Writes directly -- invisible to the fault harness."""\n'
            '    with open(path, "wb") as handle:\n'
            "        handle.write(data)\n"
        )
        result = run_lint([real_tree / "src"], root=real_tree, select=("DUR",))
        assert find_lines(result.new_findings, "DUR001") == [6]

    def test_unregistered_crash_point_fails_the_lint(self, real_tree):
        target = real_tree / "src" / "repro" / "fabric" / "orderer.py"
        text = target.read_text()
        text = text.replace(
            "crash_point(ORDERER_BLOCK_CUT)",
            'crash_point(ORDERER_BLOCK_CUT)\n        crash_point("orderer.rogue_point")',
        )
        target.write_text(text)
        result = run_lint([real_tree / "src"], root=real_tree, select=("CRASH",))
        assert find_lines(result.new_findings, "CRASH001"), result.render_text()

    def test_two_hop_helper_chain_is_caught_by_det002_not_chain001(self, real_tree):
        # A chaincode whose nondeterminism is laundered through two
        # module-level helpers: invisible to the per-file rule, fatal to
        # the interprocedural one.
        target = real_tree / "src" / "repro" / "temporal" / "chaincodes.py"
        target.write_text(
            target.read_text()
            + "\n\nimport time\n\n\n"
            "def _clock():\n"
            '    """Hop two."""\n'
            "    return time.time()\n\n\n"
            "def _stamp():\n"
            '    """Hop one."""\n'
            "    return _clock()\n\n\n"
            "class SneakyChaincode(Chaincode):\n"
            '    """Nondeterministic only through the helper chain."""\n\n'
            '    name = "sneaky"\n\n'
            "    def invoke(self, stub, fn, args):\n"
            '        """Commits a laundered wall-clock reading."""\n'
            "        stub.put_state(args[0], _stamp())\n"
            "        return []\n"
        )
        result = run_lint([real_tree / "src"], root=real_tree, select=("DET", "CHAIN"))
        det_hits = [
            finding
            for finding in result.new_findings
            if finding.rule_id == "DET002"
            and finding.path.endswith("chaincodes.py")
        ]
        assert det_hits, result.render_text()
        assert all("time.time" in finding.message for finding in det_hits)
        assert "_clock -> _stamp" in det_hits[0].message
        assert not find_lines(result.new_findings, "CHAIN001"), (
            "the laundered flow must be invisible to the per-file rule"
        )

    def test_dropped_tombstone_fails_the_lint(self, real_tree):
        # Remove the clear_index submission from the indexer's ingest
        # loop: the bundle write loses its tombstone and TEMP001 fires.
        target = real_tree / "src" / "repro" / "temporal" / "m1.py"
        text = target.read_text()
        assert '"clear_index", [index_key],' in text
        target.write_text(
            text.replace('"clear_index", [index_key],', '"noop", [index_key],')
        )
        result = run_lint([real_tree / "src"], root=real_tree, select=("TEMP",))
        temp_hits = find_lines(result.new_findings, "TEMP001")
        assert temp_hits, result.render_text()

    def test_unlocked_gateway_write_fails_the_lint(self, conc001_mutants):
        _assert_conc001(*conc001_mutants, attr="retries_attempted")

    def test_unlocked_block_cache_write_fails_the_lint(self, conc001_mutants):
        # BlockCache is lock-carrying (readers race each other).
        _assert_conc001(*conc001_mutants, attr="capacity")

    def test_unlocked_metrics_write_fails_the_lint(self, conc001_mutants):
        _assert_conc001(*conc001_mutants, attr="_counters")

    def test_sleep_under_lock_fails_the_lint(self, conc003_mutants):
        result, _ = conc003_mutants
        conc = [
            finding
            for finding in result.new_findings
            if finding.path == "src/repro/storage/napping.py"
        ]
        assert [(finding.rule_id, finding.line) for finding in conc] == [
            ("CONC003", 17)
        ], result.render_text()
        assert "time.sleep" in conc[0].message

    def test_leaked_seam_handle_fails_the_lint(self, real_tree):
        leaky = real_tree / "src" / "repro" / "common" / "leaky.py"
        leaky.write_text(
            '"""A helper that leaks its seam handle on exceptions."""\n\n\n'
            "def dump(fs, path, data):\n"
            '    """Writes, but only closes on the happy path."""\n'
            "    handle = fs.open(path, 'wb')\n"
            "    handle.write(data)\n"
            "    handle.close()\n"
        )
        result = run_lint([real_tree / "src"], root=real_tree, select=("RES",))
        assert find_lines(result.new_findings, "RES001") == [6], (
            result.render_text()
        )

    def test_seeded_sleep_under_metrics_lock_fails_the_lint(self, conc003_mutants):
        result, sleep_line = conc003_mutants
        local_hits = [
            finding
            for finding in result.new_findings
            if finding.path == "src/repro/common/metrics.py"
        ]
        assert [(finding.rule_id, finding.line) for finding in local_hits] == [
            ("CONC003", sleep_line)
        ], result.render_text()
        assert "time.sleep" in local_hits[0].message
        assert "MetricsRegistry._lock" in local_hits[0].message
        # No other CONC finding: every hit outside the two mutants is a
        # caller holding its own lock across increment(), and names the
        # seeded sleep at its exact line.
        chain = f"repro.common.metrics.MetricsRegistry.increment:{sleep_line}"
        others = [
            finding
            for finding in result.new_findings
            if finding.path
            not in ("src/repro/common/metrics.py", "src/repro/storage/napping.py")
        ]
        assert others, result.render_text()
        for finding in others:
            assert finding.rule_id == "CONC003", finding.render()
            assert chain in finding.message, finding.render()

    def test_deregistered_crash_point_fails_the_lint(self, real_tree):
        registry = real_tree / "src" / "repro" / "fabric" / "ledger.py"
        text = registry.read_text()
        assert "crash_point(LEDGER_PRE_STATE)" in text
        registry.write_text(
            text.replace("crash_point(LEDGER_PRE_STATE)", "pass  # instrumentation dropped")
        )
        result = run_lint([real_tree / "src"], root=real_tree, select=("CRASH",))
        messages = [
            finding.message
            for finding in result.new_findings
            if finding.rule_id == "CRASH001"
        ]
        assert any("LEDGER_PRE_STATE" in message for message in messages)
