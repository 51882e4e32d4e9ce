"""Tests for the experiment runner."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bench.runner import ExperimentRunner
from repro.common.errors import ConfigError
from repro.temporal.intervals import TimeInterval
from repro.workload.generator import WorkloadConfig, generate

CONFIG = WorkloadConfig(
    name="runner-test",
    n_shipments=4,
    n_containers=2,
    n_trucks=2,
    events_per_key=12,
    t_max=600,
    seed=17,
)


@pytest.fixture(scope="module")
def data():
    return generate(CONFIG)


class TestBuild:
    def test_plain_variant(self, data):
        with ExperimentRunner.build(data, "plain") as runner:
            assert runner.variant == "plain"
            assert runner.chaincode_name == "supplychain"

    def test_m2_variant_requires_u(self, data):
        with pytest.raises(ConfigError, match="requires m2_u"):
            ExperimentRunner.build(data, "m2")

    def test_unknown_variant(self, data):
        with pytest.raises(ConfigError, match="unknown variant"):
            ExperimentRunner.build(data, "hybrid")

    def test_build_from_config_generates(self):
        with ExperimentRunner.build(CONFIG, "plain") as runner:
            assert len(runner.data.events) == CONFIG.total_events

    def test_explicit_path_is_kept(self, data, tmp_path):
        ledger_dir = tmp_path / "ledger"
        runner = ExperimentRunner.build(data, "plain", path=ledger_dir)
        runner.ingest()
        runner.close()
        assert ledger_dir.exists()  # close() must not delete a user path

    def test_temp_path_is_removed_on_close(self, data):
        runner = ExperimentRunner.build(data, "plain")
        workdir = runner._workdir
        assert Path(workdir).exists()
        runner.close()
        assert not Path(workdir).exists()


class TestIngestAndQuery:
    def test_ingest_and_join(self, data):
        with ExperimentRunner.build(data, "plain") as runner:
            report = runner.ingest()
            assert report.events == len(data.events)
            runner.build_m1_index(u=100)
            window = TimeInterval(100, 400)
            tqf = runner.run_join("tqf", window)
            m1 = runner.run_join("m1", window)
            assert tqf.rows == m1.rows

    def test_partial_ingest_bounds(self, data):
        with ExperimentRunner.build(data, "plain") as runner:
            first = runner.ingest(until=300)
            second = runner.ingest(after=300)
            assert first.events + second.events == len(data.events)
            assert first.events == sum(1 for e in data.events if e.time <= 300)

    def test_m1_index_on_m2_variant_rejected(self, data):
        with ExperimentRunner.build(data, "m2", m2_u=100) as runner:
            with pytest.raises(ConfigError, match="plain variant"):
                runner.build_m1_index(u=100)

    def test_state_accounting(self, data):
        with ExperimentRunner.build(data, "m2", m2_u=100) as runner:
            runner.ingest()
            # M2 state-db holds one state per (key, occupied interval).
            assert runner.state_count() > CONFIG.key_count


class TestBaseAccessBench:
    def test_m2_bench(self, data):
        with ExperimentRunner.build(data, "m2", m2_u=100) as runner:
            runner.ingest()
            result = runner.base_access_bench(get_state_calls=20, ghfk_calls=5)
            assert result.get_state_calls == 20
            assert result.get_state_probes >= 20
            assert result.ghfk_calls == 5
            assert result.get_state_seconds > 0
            assert result.ghfk_seconds > 0

    def test_base_bench_requires_m2(self, data):
        with ExperimentRunner.build(data, "plain") as runner:
            runner.ingest()
            with pytest.raises(ConfigError, match="m2 variant"):
                runner.base_access_bench(get_state_calls=1, ghfk_calls=1)

    def test_baseline_bench_requires_plain(self, data):
        with ExperimentRunner.build(data, "m2", m2_u=100) as runner:
            runner.ingest()
            with pytest.raises(ConfigError, match="plain variant"):
                runner.base_data_bench(get_state_calls=1, ghfk_calls=1)

    def test_baseline_bench(self, data):
        with ExperimentRunner.build(data, "plain") as runner:
            runner.ingest()
            result = runner.base_data_bench(get_state_calls=10, ghfk_calls=3)
            assert result.get_state_probes == 10  # one probe per plain call
