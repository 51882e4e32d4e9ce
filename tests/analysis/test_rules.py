"""Per-rule behavior on the seeded good/bad fixture snippets.

Every bad fixture line carries an ``# expect: RULE`` marker; the tests
assert the analyzer reports exactly those (rule id, line) pairs and
nothing else, and that the good fixtures come back clean.
"""

from __future__ import annotations

import shutil

import pytest

from repro.analysis import all_rules, run_lint
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


class TestSelectValidation:
    """A --select that matches nothing must be a usage error, not a
    vacuous pass."""

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


def _edit(target, old, new):
    """Replace the first occurrence of ``old`` in ``target`` with ``new``."""
    text = target.read_text()
    assert old in text, old
    target.write_text(text.replace(old, new, 1))


def _line_of(target, marker):
    """The line number of the one line of ``target`` holding ``marker``."""
    hits = [
        number
        for number, line in enumerate(target.read_text().splitlines(), start=1)
        if marker in line
    ]
    assert len(hits) == 1, (marker, hits)
    return hits[0]


class TestMutationAcceptance:
    """For each rule, the mutant from DESIGN.md §5's mutant tables that
    only that rule convicts (plus a few more shapes of the same bugs),
    seeded together into one clone of the real ``src/`` tree, which is
    linted once with every rule.  Each finding must land at its
    mutant's exact ``file:line``, and nothing else may fire."""

    @pytest.fixture(scope="class")
    def mutants(self, tmp_path_factory):
        """``(result, expected)``: the one run and each mutant's
        ``(rule, path, line)``."""
        clone = _clone_real_tree(tmp_path_factory.mktemp("mutants"))
        repro = clone / "src" / "repro"
        sstable = repro / "storage" / "kv" / "sstable.py"
        ledger = repro / "fabric" / "ledger.py"
        registry = repro / "faults" / "crashpoints.py"
        chaincodes = repro / "temporal" / "chaincodes.py"
        lsm = repro / "storage" / "kv" / "lsm.py"

        # DUR002 (mutant B): the SSTable writer flushes its temp file but
        # never fsyncs it before the rename.
        _edit(sstable, "            fs.fsync(handle)\n", "            handle.flush()\n")
        # DUR001: the LSM manifest written straight to its final name
        # instead of renaming the staged copy, bypassing the seam
        # (FaultyFS can neither tear nor drop it).
        _edit(
            lsm,
            "        self._fs.replace(tmp, manifest)\n",
            "        manifest.write_bytes(payload)  # mutant: raw write\n",
        )
        (repro / "storage" / "sneaky.py").write_text(
            '"""A write path added without the seam."""\n\n\n'
            "def persist(path, data):\n"
            '    """Writes directly -- invisible to the fault harness."""\n'
            '    with open(path, "wb") as handle:\n'
            "        handle.write(data)\n"
        )
        # RES001: the LSM manifest's temp handle closed only on the happy
        # path, so a failed write or fsync leaks it.
        _edit(
            lsm,
            "        handle = self._fs.open(tmp, \"wb\")\n"
            "        try:\n"
            "            handle.write(payload)\n"
            "            if self._fsync:\n"
            "                self._fs.fsync(handle)\n"
            "        finally:\n"
            "            handle.close()\n",
            "        handle = self._fs.open(tmp, \"wb\")  # mutant: leak\n"
            "        handle.write(payload)\n"
            "        if self._fsync:\n"
            "            self._fs.fsync(handle)\n"
            "        handle.close()\n",
        )
        # ERR001: the endorser's two handlers collapsed into one broad
        # catch that wraps everything, SimulatedCrashError included.
        _edit(
            repro / "fabric" / "endorser.py",
            "        except (FaultInjectionError, EndorsementError):\n"
            "            # SimulatedCrashError must reach the fault harness untouched;\n"
            "            # wrapping it here would let chaincode survive its own crash.\n"
            "            raise\n"
            "        except (ReproError, ValueError, TypeError, KeyError, IndexError, "
            "AttributeError) as exc:\n",
            "        except Exception as exc:  # mutant: broad catch\n",
        )
        # CRASH001: a crash point added to the commit path but never
        # registered, so the kill-point sweep never fires it; and a
        # registered point whose call site was dropped.
        _edit(
            ledger,
            "            crash_point(LEDGER_PRE_SAVEPOINT)\n",
            "            crash_point(LEDGER_PRE_SAVEPOINT)\n"
            '            crash_point("ledger.pre_savepoint_record")\n',
        )
        _edit(
            ledger,
            "            crash_point(LEDGER_PRE_STATE)\n",
            "            pass  # instrumentation dropped\n",
        )

        # CHAIN001: an audit write gated on the peer's environment -- a
        # branch around a constant, so no value carries taint to the write.
        _edit(
            chaincodes,
            "            stub.put_state(event.key, event.to_value())\n"
            "            return {\"key\": event.key, \"t\": event.time}\n"
            "        if fn == \"record_events\":",
            "            stub.put_state(event.key, event.to_value())\n"
            "            if os.environ.get(\"REPRO_AUDIT_EVENTS\"):  # mutant: env branch\n"
            "                stub.put_state(\"\\x03audit\", event.key)\n"
            "            return {\"key\": event.key, \"t\": event.time}\n"
            "        if fn == \"record_events\":",
        )
        # DET002: the M1 bundle deduplicated through a set, so the stored
        # event order follows per-process string hashing -- identical
        # within one process, which is all tier-1 ever compares; and a
        # wall clock laundered through two module-level helpers.
        _edit(chaincodes, "from typing import", "import json\nimport os\nimport time\nfrom typing import")
        _edit(
            chaincodes,
            "\n\ndef validate_transition(",
            "\n\ndef _distinct(values):\n"
            '    """Drop duplicate events from a bundle."""\n'
            "    return [json.loads(text) for text in "
            "{json.dumps(value, sort_keys=True) for value in values}]\n"
            "\n\ndef validate_transition(",
        )
        _edit(
            chaincodes,
            "            stub.put_state(index_key, event_values)\n",
            "            stub.put_state(index_key, _distinct(event_values))  # mutant: set order\n",
        )
        chaincodes.write_text(
            chaincodes.read_text()
            + "\n\ndef _clock():\n"
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
            "        stub.put_state(args[0], _stamp())  # mutant: two hops\n"
            "        return []\n"
        )

        def at(rule, target, marker):
            return (rule, target.relative_to(clone).as_posix(), _line_of(target, marker))

        expected = {
            "sstable_fsync": at("DUR002", sstable, "fs.replace(tmp_path, path)"),
            "raw_manifest": at("DUR001", lsm, "# mutant: raw write"),
            "raw_open": at("DUR001", repro / "storage" / "sneaky.py", "open(path"),
            "leaked_handle": at("RES001", lsm, "# mutant: leak"),
            "env_branch": at("CHAIN001", chaincodes, "# mutant: env branch"),
            "broad_catch": at("ERR001", repro / "fabric" / "endorser.py", "# mutant: broad catch"),
            "unregistered_point": at("CRASH001", ledger, "ledger.pre_savepoint_record"),
            "dropped_point": at("CRASH001", registry, "LEDGER_PRE_STATE = "),
            "set_order": at("DET002", chaincodes, "# mutant: set order"),
            "two_hops": at("DET002", chaincodes, "# mutant: two hops"),
        }
        result = run_lint([clone / "src"], root=clone)
        return result, expected

    @staticmethod
    def _message(result, key):
        """The message of the finding at ``key`` = (rule, path, line)."""
        messages = [
            finding.message
            for finding in result.new_findings
            if (finding.rule_id, finding.path, finding.line) == key
        ]
        assert messages, f"nothing at {key}:\n{result.render_text()}"
        return messages[0]

    def test_nothing_but_the_seeded_lines_fires(self, mutants):
        # The unmutated rest of the tree stays clean.
        result, expected = mutants
        assert set(expected.values()) == {
            (finding.rule_id, finding.path, finding.line)
            for finding in result.new_findings
        }, result.render_text()

    def test_dropped_sstable_fsync_fails_the_lint(self, mutants):
        # The bug no other detector convicts: FaultyFS drops unsynced
        # bytes only on a kill, and nothing in tier-1 kills right after
        # an SSTable's rename (DESIGN.md §5, the lint-rule mutant table).
        result, expected = mutants
        assert expected["sstable_fsync"][1:] == ("src/repro/storage/kv/sstable.py", 112)
        assert "never fsynced" in self._message(result, expected["sstable_fsync"])

    def test_unregistered_crash_point_fails_the_lint(self, mutants):
        result, expected = mutants
        message = self._message(result, expected["unregistered_point"])
        assert "registry does not know" in message

    def test_deregistered_crash_point_fails_the_lint(self, mutants):
        result, expected = mutants
        message = self._message(result, expected["dropped_point"])
        assert "LEDGER_PRE_STATE" in message
        assert "no crash_point() call site fires it" in message

    def test_set_ordered_bundle_fails_the_lint(self, mutants):
        # The bug no other detector convicts: set iteration order varies
        # only across processes (string hashing), and tier-1 compares
        # every ledger with a reference built in the same process.
        result, expected = mutants
        message = self._message(result, expected["set_order"])
        assert "set iteration order" in message
        assert "_distinct" in message

    def test_two_hop_helper_chain_is_caught_by_det002_not_chain001(self, mutants):
        # A chaincode whose nondeterminism is laundered through two
        # module-level helpers: invisible to the per-file rule, fatal to
        # the interprocedural one.
        result, expected = mutants
        message = self._message(result, expected["two_hops"])
        assert "time.time" in message
        assert "_clock -> _stamp" in message
        path = expected["two_hops"][1]
        chain001 = {
            finding.line
            for finding in result.new_findings
            if finding.rule_id == "CHAIN001" and finding.path == path
        }
        assert chain001 <= {
            line for rule, _, line in expected.values() if rule == "CHAIN001"
        }, "the laundered flow must be invisible to the per-file rule"

    def test_raw_manifest_write_fails_the_lint(self, mutants):
        # Tier-1 stays green: a write FaultyFS never sees is one it can
        # never tear, so every crash test recovers.
        result, expected = mutants
        assert ".write_bytes() bypasses the FileSystem seam" in self._message(
            result, expected["raw_manifest"]
        )

    def test_injected_raw_open_fails_the_lint(self, mutants):
        result, expected = mutants
        assert expected["raw_open"][2] == 6
        assert "raw open() with mode 'wb'" in self._message(result, expected["raw_open"])

    def test_leaked_seam_handle_fails_the_lint(self, mutants):
        result, expected = mutants
        assert "only closed on the happy path" in self._message(
            result, expected["leaked_handle"]
        )

    def test_environment_gated_write_fails_the_lint(self, mutants):
        # A branch around a constant carries no taint, so DET002 is
        # silent; tier-1 never sets the variable.
        result, expected = mutants
        rules = {
            finding.rule_id
            for finding in result.new_findings
            if (finding.path, finding.line) == expected["env_branch"][1:]
        }
        assert rules == {"CHAIN001"}, result.render_text()
        assert "os.environ" in self._message(result, expected["env_branch"])

    def test_broad_endorser_catch_fails_the_lint(self, mutants):
        # Tier-1 stays green: no test drives a fault-harness error
        # through a chaincode invocation, so nothing sees it wrapped.
        result, expected = mutants
        assert "broad except Exception" in self._message(result, expected["broad_catch"])
