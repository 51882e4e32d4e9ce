"""The ``repro lint`` subcommand: exit codes, formats, rule selection."""

from __future__ import annotations

import json
import shutil

import pytest

from repro.cli import main
from tests.analysis.helpers import FIXTURES


@pytest.fixture()
def project(tmp_path):
    src = tmp_path / "proj" / "src"
    src.mkdir(parents=True)
    shutil.copy(FIXTURES / "resources" / "handles.py", src / "handlers.py")
    return tmp_path / "proj"


def lint_argv(project, *extra):
    return [
        "lint",
        str(project / "src"),
        "--root",
        str(project),
        *extra,
    ]


def test_findings_exit_nonzero_with_rule_ids_in_output(project, capsys):
    assert main(lint_argv(project)) == 1
    out = capsys.readouterr().out
    assert "RES001" in out and "handlers.py" in out


def test_clean_tree_exits_zero(project, capsys):
    (project / "src" / "handlers.py").write_text('"""Nothing to see."""\n')
    assert main(lint_argv(project)) == 0
    assert "0 new finding(s)" in capsys.readouterr().out


def test_json_format_is_machine_readable(project, capsys):
    assert main(lint_argv(project, "--format", "json")) == 1
    document = json.loads(capsys.readouterr().out)
    assert document["ok"] is False
    assert {finding["rule"] for finding in document["findings"]} == {"RES001"}
    assert all(finding["line"] > 0 for finding in document["findings"])


def test_select_limits_the_rules(project, capsys):
    assert main(lint_argv(project, "--select", "DUR002")) == 0
    assert main(lint_argv(project, "--select", "RES001")) == 1


def test_unknown_rule_and_missing_path_are_usage_errors(project, capsys):
    assert main(lint_argv(project, "--select", "NOPE999")) == 2
    assert main(["lint", str(project / "missing"), "--root", str(project)]) == 2


def test_select_accepts_comma_separated_prefixes(project, capsys):
    # "RES" is a prefix of RES001; pairing it with DUR keeps only those
    # families, and the RES finding still fails the run.
    assert main(lint_argv(project, "--select", "DUR,RES")) == 1
    out = capsys.readouterr().out
    assert "RES001" in out
    assert main(lint_argv(project, "--select", "DUR,dur002")) == 0


def test_unknown_prefix_is_a_usage_error(project, capsys):
    assert main(lint_argv(project, "--select", "RES,ZZZ")) == 2
    assert "ZZZ" in capsys.readouterr().err


def test_help_documents_the_exit_codes(capsys):
    with pytest.raises(SystemExit):
        main(["lint", "--help"])
    out = " ".join(capsys.readouterr().out.split())  # undo argparse wrapping
    assert "0 = clean" in out
    assert "1 = new findings" in out
    assert "2 = usage error" in out


def test_explain_prints_rule_documentation(capsys):
    assert main(["lint", "--explain", "DUR002"]) == 0
    out = capsys.readouterr().out
    assert "DUR002" in out and "fsync" in out
    # NOPE999 never existed; DET002 and DUR001 were deleted with their rules.
    for unknown in ("NOPE999", "DET002", "DUR001"):
        assert main(["lint", "--explain", unknown]) == 2
        captured = capsys.readouterr()  # a usage error: stderr, like the others
        assert captured.out == "" and f"unknown rule {unknown!r}" in captured.err


def test_explain_matches_case_insensitively_like_select(capsys):
    assert main(["lint", "--explain", "dur002"]) == 0
    assert capsys.readouterr().out.startswith("DUR002:")
