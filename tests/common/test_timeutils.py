"""Tests for stopwatches and duration formatting."""

from __future__ import annotations

import pytest

from repro.common.timeutils import Stopwatch, format_duration


class TestStopwatch:
    def test_start_stop_accumulates(self, clock):
        watch = Stopwatch().start()
        clock.now += 0.25
        assert watch.stop() == 0.25
        clock.now += 8.0  # time between intervals is not counted
        watch.start()
        clock.now += 0.5
        assert watch.stop() == 0.75

    def test_double_start_rejected(self):
        watch = Stopwatch().start()
        with pytest.raises(RuntimeError):
            watch.start()
        watch.stop()

    def test_stop_without_start_rejected(self):
        with pytest.raises(RuntimeError):
            Stopwatch().stop()

class TestFormatDuration:
    def test_sub_ten_seconds_two_decimals(self):
        assert format_duration(3.817) == "3.82s"

    def test_sub_minute_one_decimal(self):
        assert format_duration(12.24) == "12.2s"

    def test_minutes_and_seconds(self):
        assert format_duration(7 * 60 + 13) == "7m13s"

    def test_exact_minute(self):
        assert format_duration(60) == "1m0s"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            format_duration(-0.1)
