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
    find_lines,
    lint_fixture_tree,
)


def test_registry_exposes_the_documented_rule_families():
    rules = all_rules()
    assert {"DUR002", "RES001"} == set(rules)
    for rule_id, rule_class in rules.items():
        assert rule_class.rule_id == rule_id
        assert rule_class.__doc__, f"{rule_id} has no docstring for --explain"


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
        # The same unsynced rename outside repro/storage|fabric|faults is
        # none of DUR002's business.
        elsewhere = tmp_path / "tools"
        elsewhere.mkdir()
        shutil.copy(FIXTURES / "repro" / "storage" / "bad_writes.py", elsewhere)
        result = run_lint([elsewhere], root=tmp_path)
        assert not find_lines(result.new_findings, "DUR002")

    def test_previous_line_suppression_form(self):
        result = lint_fixture_tree("repro")
        suppressed = [
            finding
            for finding in result.suppressed
            if finding.path.endswith("good_writes.py")
        ]
        assert find_lines(suppressed, "DUR002")


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
    only that rule convicts, seeded together into one clone of the real
    ``src/`` tree, which is linted once with every rule.  Each finding must land at its
    mutant's exact ``file:line``, and nothing else may fire."""

    @pytest.fixture(scope="class")
    def mutants(self, tmp_path_factory):
        """``(result, expected)``: the one run and each mutant's
        ``(rule, path, line)``."""
        clone = _clone_real_tree(tmp_path_factory.mktemp("mutants"))
        repro = clone / "src" / "repro"
        sstable = repro / "storage" / "kv" / "sstable.py"
        lsm = repro / "storage" / "kv" / "lsm.py"

        # DUR002 (mutant B): the SSTable writer flushes its temp file but
        # never fsyncs it before the rename.
        _edit(sstable, "            fs.fsync(handle)\n", "            handle.flush()\n")
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

        def at(rule, target, marker):
            return (rule, target.relative_to(clone).as_posix(), _line_of(target, marker))

        expected = {
            "sstable_fsync": at("DUR002", sstable, "fs.replace(tmp_path, path)"),
            "leaked_handle": at("RES001", lsm, "# mutant: leak"),
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

    def test_leaked_seam_handle_fails_the_lint(self, mutants):
        result, expected = mutants
        assert "only closed on the happy path" in self._message(
            result, expected["leaked_handle"]
        )
