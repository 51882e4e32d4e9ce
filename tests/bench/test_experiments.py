"""Tests for the per-table experiment definitions, at tiny scale.

These verify the experiment *structure* (right windows, right u values,
right row counts, monotone counters) rather than absolute timings, so
they stay robust on any machine.
"""

from __future__ import annotations

import pytest

from repro.bench import experiments
from repro.common.errors import ConfigError
from repro.temporal.intervals import TimeInterval

SCALE = dict(scale=0.02, entity_scale=0.1)


class TestHelpers:
    def test_u_values_at_full_scale(self):
        assert experiments.u_small(150_000) == 2_000
        assert experiments.u_medium(150_000) == 10_000
        assert experiments.u_large(150_000) == 50_000
        assert experiments.u_xlarge(150_000) == 75_000

    def test_table1_windows_at_full_scale(self):
        windows = experiments.table1_windows(150_000)
        assert len(windows) == 9
        assert windows[0] == TimeInterval(0, 10_000)
        assert windows[3] == TimeInterval(60_000, 70_000)
        assert windows[-1] == TimeInterval(140_000, 150_000)

    def test_dataset_config_lookup(self):
        assert experiments.dataset_config("ds2", **SCALE).distribution == "zipf"
        with pytest.raises(ConfigError, match="unknown dataset"):
            experiments.dataset_config("ds9")


@pytest.mark.slow
class TestTable1:
    def test_ds3_structure(self):
        result = experiments.run_table1(dataset="ds3", **SCALE)
        assert result.dataset == "DS3"
        assert len(result.rows) == 9
        assert result.u_large is None  # only DS1 gets the large-u column
        for row in result.rows:
            assert row.m2_large is None
            assert row.tqf.ghfk_calls == result.config.key_count

    def test_ds1_includes_large_u(self):
        result = experiments.run_table1(dataset="ds1", **SCALE)
        assert result.u_large is not None
        assert all(row.m2_large is not None for row in result.rows)
        keys = result.config.key_count
        for row in result.rows:
            # At the large u a window overlaps one interval per key.
            assert row.m2_large.ghfk_calls <= keys
        # The paper's Table I shape on block counters: M1 stays flat
        # while TQF grows, and on the late window M1 reads fewer blocks
        # than M2, which reads fewer than TQF.
        early, late = result.rows[0], result.rows[-1]
        assert late.m1.blocks_deserialized <= 2 * early.m1.blocks_deserialized
        assert late.tqf.blocks_deserialized > 2 * early.tqf.blocks_deserialized
        assert late.m1.blocks_deserialized < late.tqf.blocks_deserialized / 4
        assert late.m1.blocks_deserialized <= late.m2_small.blocks_deserialized
        assert late.m2_small.blocks_deserialized < late.tqf.blocks_deserialized

    def test_tqf_blocks_grow_across_windows(self):
        result = experiments.run_table1(dataset="ds3", **SCALE)
        first = result.rows[0].tqf.blocks_deserialized
        last = result.rows[-1].tqf.blocks_deserialized
        assert last > first


@pytest.mark.slow
class TestTable2:
    def test_structure_and_monotonicity(self):
        result = experiments.run_table2(**SCALE)
        assert len(result.rows) == 3
        assert [row.u for row in result.rows] == sorted(row.u for row in result.rows)
        for window in ("late_window", "early_window"):
            blocks = [getattr(row, window).blocks_deserialized for row in result.rows]
            assert blocks == sorted(blocks, reverse=True), window


@pytest.mark.slow
class TestTable3:
    def test_periodic_structure(self):
        result = experiments.run_table3(invocations=3, **SCALE)
        assert len(result.rows) == 3
        assert [row.timestamp for row in result.rows] == [
            result.period * i for i in range(1, 4)
        ]
        assert result.rows[-1].timestamp == result.config.t_max
        totals = [row.total_seconds for row in result.rows]
        assert totals == sorted(totals)


@pytest.mark.slow
class TestTable4:
    def test_probe_trend(self):
        result = experiments.run_table4(
            get_state_calls=200, ghfk_calls=10, **SCALE
        )
        assert len(result.rows) == 4
        probes = [row.get_state_probes for row in result.rows]
        assert probes == sorted(probes, reverse=True)
        # The small u pays extra probes; the large u flattens toward the
        # floor of one empty "now" interval plus one hit per call.
        assert probes[0] > probes[-1]
        assert probes[-1] <= 2 * result.rows[0].get_state_calls
        assert result.baseline is not None
        assert result.baseline.get_state_probes == 200
