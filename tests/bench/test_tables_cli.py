"""Tests for table rendering and the CLI."""

from __future__ import annotations

import pytest

from repro.bench import experiments, tables
from repro.bench.runner import ExperimentRunner
from repro.cli import build_parser, main

SCALE = dict(scale=0.02, entity_scale=0.1)


@pytest.fixture(scope="module")
def table1_result():
    return experiments.run_table1(dataset="ds3", **SCALE)


class TestRendering:
    def test_table1_contains_all_windows(self, table1_result):
        rendered = tables.render_table1(table1_result)
        for row in table1_result.rows:
            assert str(row.window) in rendered
        assert "Table I -- DS3" in rendered
        assert "ingestion:" in rendered

    def test_table1_ds1_has_large_u_column(self):
        result = experiments.run_table1(dataset="ds1", **SCALE)
        rendered = tables.render_table1(result)
        assert f"u={result.u_large}" in rendered

    def test_table2_rendering(self):
        result = experiments.run_table2(**SCALE)
        rendered = tables.render_table2(result)
        assert "Table II" in rendered
        for row in result.rows:
            assert str(row.u) in rendered

    def test_table3_rendering(self):
        result = experiments.run_table3(invocations=2, **SCALE)
        rendered = tables.render_table3(result)
        assert "Table III" in rendered
        assert "total elapsed" in rendered

    def test_table4_rendering(self):
        result = experiments.run_table4(get_state_calls=50, ghfk_calls=4, **SCALE)
        rendered = tables.render_table4(result)
        assert "Table IV" in rendered
        assert "Base data" in rendered


class TestParser:
    def test_table1_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.dataset == "ds1"
        assert args.scale is None

    def test_dataset_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table1", "--dataset", "ds9"])

    def test_scale_flags(self):
        args = build_parser().parse_args(
            ["table2", "--scale", "0.5", "--entity-scale", "0.2"]
        )
        assert args.scale == 0.5
        assert args.entity_scale == 0.2

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize(
        "command", ["table1", "table2", "table3", "table4", "all", "verify"]
    )
    def test_unknown_statedb_is_a_usage_error(self, command):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([command, "--statedb", "bogus"])
        assert exit_info.value.code == 2

    def test_verify_offers_no_json(self):
        """``verify`` writes no structured result, so it takes no path."""
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["verify", "--json", "out.json"])
        assert exit_info.value.code == 2


@pytest.mark.slow
class TestMain:
    @pytest.mark.parametrize("argv", [
        ["table2", "--scale", "0", "--entity-scale", "-3"],
        ["table1", "--dataset", "ds3", "--entity-scale", "1.5"],
        ["verify", "--scale", "2"],
    ])
    def test_a_scale_outside_the_unit_interval_is_refused(self, capsys, argv):
        """``--scale`` / ``--entity-scale`` reach the dataset's one range
        check: the command stops before building anything, non-zero."""
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be in (0, 1]" in captured.err

    def test_table1_end_to_end(self, capsys):
        exit_code = main(
            ["table1", "--dataset", "ds3", "--scale", "0.02", "--entity-scale", "0.1"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Table I -- DS3" in out

    def test_json_output(self, capsys, tmp_path):
        import json

        out_file = tmp_path / "result.json"
        exit_code = main(
            [
                "table1", "--dataset", "ds3",
                "--scale", "0.02", "--entity-scale", "0.1",
                "--json", str(out_file),
            ]
        )
        assert exit_code == 0
        document = json.loads(out_file.read_text())
        assert document[0]["dataset"] == "DS3"
        assert len(document[0]["rows"]) == 9
        row = document[0]["rows"][0]
        assert row["tqf"]["ghfk_calls"] == document[0]["config"]["n_shipments"] + (
            document[0]["config"]["n_containers"]
        )
        assert "join_seconds" in row["m1"]

    def test_table4_end_to_end(self, capsys):
        exit_code = main(
            [
                "table4",
                "--scale", "0.02",
                "--entity-scale", "0.1",
                "--get-state-calls", "50",
                "--ghfk-calls", "4",
            ]
        )
        assert exit_code == 0
        assert "Table IV" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command",
        [
            ["table3", "--invocations", "2"],
            ["table4", "--get-state-calls", "20", "--ghfk-calls", "2"],
        ],
        ids=lambda command: command[0],
    )
    def test_statedb_reaches_every_ledger(self, monkeypatch, command):
        built = []
        build = ExperimentRunner.build.__func__

        def recording_build(cls, *args, **kwargs):
            runner = build(cls, *args, **kwargs)
            config = runner.network.config
            built.append(config.state_db.backend)
            return runner

        monkeypatch.setattr(ExperimentRunner, "build", classmethod(recording_build))
        exit_code = main(
            [*command, "--scale", "0.02", "--entity-scale", "0.1",
             "--statedb", "lsm"]
        )
        assert exit_code == 0
        assert built and set(built) == {"lsm"}
