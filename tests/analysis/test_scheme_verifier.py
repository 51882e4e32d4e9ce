"""The symbolic scheme verifier: term algebra, axioms, rules, bridge.

The acceptance criteria: ``repro lint --select TEMP`` must convict both
seeded mutations (shifted half-open boundary, dropped last partial
interval in ``partition_clipped``) at the exact file and line with the
expected rule id, and must report zero findings on the unmutated tree.
"""

from __future__ import annotations

import ast
import json
import shutil

import pytest

from repro.analysis import run_lint
from repro.analysis.project import build_project
from repro.analysis.symbolic import Lin, bridge, fuzz_project, verify_project
from tests.analysis.helpers import FIXTURES


def _def_line(path, class_name: str, method: str) -> int:
    """The exact definition line of ``class.method`` in ``path``."""
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == method:
                    return item.lineno
    raise AssertionError(f"{class_name}.{method} not found in {path}")


class TestLinTerms:
    def test_algebra_and_materialization(self):
        term = Lin(2, 1) + Lin(1, -3)  # 3u - 2
        assert term == Lin(3, -2)
        assert term.at(5) == 13
        assert str(term) == "3u-2"
        assert (term - 1) == Lin(3, -3)
        assert Lin(1, 0).scale(4) == Lin(4, 0)

    def test_comparisons_hold_for_all_u(self):
        assert Lin(1, 0).always_positive()  # u > 0
        assert not Lin(0, 0).always_positive()
        assert not Lin(-1, 100).always_positive()  # eventually negative
        assert Lin(1, 0).always_le(Lin(2, 0))  # u <= 2u
        assert not Lin(2, 0).always_le(Lin(1, 5))

    def test_floor_division_simplifies_known_residues(self):
        assert Lin(3, 1).floordiv_u(u_min=2) == (3, 1)
        assert Lin(3, 0).floordiv_u() == (3, 0)
        # u-dependent residue: 3u + 5 may or may not wrap at small u.
        assert Lin(3, 5).floordiv_u(u_min=2) is None


class TestRealTreeVerifies:
    @pytest.fixture(scope="class")
    def verification(self):
        src = FIXTURES.parent.parent.parent / "src"
        return verify_project(build_project([src], root=src.parent))

    def test_no_violations_on_the_shipped_tree(self, verification):
        assert verification.ok, [f.render() for f in verification.findings]

    def test_the_scheme_and_the_interval_class_were_verified(self, verification):
        assert [s["class"] for s in verification.schemes] == [
            "FixedIntervalScheme"
        ]
        assert [c["class"] for c in verification.interval_classes] == [
            "TimeInterval"
        ]
        assert verification.checks > 500

    def test_verification_is_memoized_per_project(self):
        src = FIXTURES.parent.parent.parent / "src"
        project = build_project([src], root=src.parent)
        assert verify_project(project) is verify_project(project)


class TestMutationAcceptance:
    """Two seeded scheme bugs, each caught at exact file:line."""

    @pytest.fixture()
    def real_tree(self, tmp_path):
        src = FIXTURES.parent.parent.parent / "src"
        clone = tmp_path / "proj"
        shutil.copytree(src, clone / "src")
        return clone

    def _temp_findings(self, tree):
        result = run_lint([tree / "src"], root=tree, select=("TEMP",))
        return [f for f in result.new_findings if f.rule_id != "TEMP001"]

    def test_unmutated_tree_is_temp_clean(self, real_tree):
        result = run_lint([real_tree / "src"], root=real_tree, select=("TEMP",))
        assert result.ok, result.render_text()

    def test_shifted_half_open_boundary_is_temp004_at_contains(self, real_tree):
        target = real_tree / "src" / "repro" / "temporal" / "intervals.py"
        text = target.read_text()
        assert "return self.start < timestamp <= self.end" in text
        target.write_text(text.replace(
            "return self.start < timestamp <= self.end",
            "return self.start <= timestamp < self.end",
        ))
        findings = self._temp_findings(real_tree)
        line = _def_line(target, "TimeInterval", "contains")
        assert any(
            f.rule_id == "TEMP004"
            and f.path == "src/repro/temporal/intervals.py"
            and f.line == line
            for f in findings
        ), [f.render() for f in findings]

    def test_dropped_last_partial_interval_is_temp002_at_partition_clipped(
        self, real_tree
    ):
        target = real_tree / "src" / "repro" / "temporal" / "intervals.py"
        text = target.read_text()
        marker = (
            "            if (clipped := interval.intersection(window)) is not None\n"
            "        ]"
        )
        assert marker in text
        target.write_text(text.replace(marker, marker + "[:-1]"))
        findings = self._temp_findings(real_tree)
        line = _def_line(target, "FixedIntervalScheme", "partition_clipped")
        assert any(
            f.rule_id == "TEMP002"
            and f.path == "src/repro/temporal/intervals.py"
            and f.line == line
            for f in findings
        ), [f.render() for f in findings]


class TestFuzzBridge:
    @pytest.fixture()
    def real_tree(self, tmp_path):
        src = FIXTURES.parent.parent.parent / "src"
        clone = tmp_path / "proj"
        shutil.copytree(src, clone / "src")
        return clone

    def test_fuzzer_is_deterministic_per_seed(self, real_tree):
        project = build_project([real_tree / "src"], root=real_tree)
        first = fuzz_project(project, rounds=5, seed=99)
        second = fuzz_project(
            build_project([real_tree / "src"], root=real_tree),
            rounds=5,
            seed=99,
        )
        assert first.seed == second.seed == 99
        assert first.checks == second.checks
        assert first.witnesses == second.witnesses

    def test_clean_tree_bridges_clean(self, real_tree):
        project = build_project([real_tree / "src"], root=real_tree)
        result = bridge(project, rounds=8, seed=3)
        assert not result.confirmed
        assert not result.unwitnessed
        assert not result.invisible

    def test_boundary_mutation_is_confirmed_by_a_fuzz_witness(self, real_tree):
        target = real_tree / "src" / "repro" / "temporal" / "intervals.py"
        target.write_text(target.read_text().replace(
            "return self.start < timestamp <= self.end",
            "return self.start <= timestamp < self.end",
        ))
        project = build_project([real_tree / "src"], root=real_tree)
        result = bridge(project, rounds=30, seed=7)
        confirmed_sites = {site for site, _ in result.confirmed}
        assert any(
            rule == "TEMP004" and method == "contains"
            for rule, _, _, method in confirmed_sites
        ), result.render_text()


class TestSchemeReportCli:
    @pytest.fixture()
    def real_tree(self, tmp_path):
        src = FIXTURES.parent.parent.parent / "src"
        clone = tmp_path / "proj"
        shutil.copytree(src, clone / "src")
        return clone

    def test_report_artifact_round_trips(self, real_tree, tmp_path, capsys):
        from repro.cli import main

        report_path = tmp_path / "scheme-report.json"
        code = main([
            "lint", str(real_tree / "src"),
            "--root", str(real_tree),
            "--scheme-report", str(report_path),
            "--scheme-fuzz-rounds", "5",
        ])
        assert code == 0, capsys.readouterr().out
        document = json.loads(report_path.read_text())
        assert document["ok"] is True
        assert document["static"]["checks"] > 500
        assert [s["class"] for s in document["static"]["schemes"]] == [
            "FixedIntervalScheme"
        ]
        assert document["bridge"] == {
            "confirmed": [],
            "unwitnessed": [],
            "statically_invisible": [],
        }

    def test_mutated_tree_fails_the_scheme_report_gate(
        self, real_tree, tmp_path, capsys
    ):
        from repro.cli import main

        target = real_tree / "src" / "repro" / "temporal" / "intervals.py"
        target.write_text(target.read_text().replace(
            "return self.start < timestamp <= self.end",
            "return self.start <= timestamp < self.end",
        ))
        report_path = tmp_path / "scheme-report.json"
        code = main([
            "lint", str(real_tree / "src"),
            "--root", str(real_tree),
            "--scheme-report", str(report_path),
            "--scheme-fuzz-rounds", "5",
        ])
        assert code == 1
        document = json.loads(report_path.read_text())
        assert document["ok"] is False
        assert document["static"]["findings"]
        out = capsys.readouterr().out
        assert "TEMP004" in out or "contains" in out


class TestFixtureTreesStayOutOfScope:
    def test_partial_fixture_scheme_is_not_verified(self):
        # The temporal_model fixture defines a FixtureScheme with only
        # interval_for: not a full scheme surface, deliberately skipped.
        project = build_project(
            [FIXTURES / "temporal_model"], root=FIXTURES
        )
        verification = verify_project(project)
        assert verification.ok
        assert not verification.schemes
