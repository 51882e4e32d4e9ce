"""Tests for the DS1/DS2/DS3 dataset configurations and scaling."""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigError
from repro.workload.datasets import ds1, ds2, ds3


class TestFullScale:
    def test_ds1_matches_paper(self):
        config = ds1(scale=1.0, entity_scale=1.0)
        assert (config.n_shipments, config.n_containers, config.n_trucks) == (400, 100, 20)
        assert config.events_per_key == 2_000
        assert config.t_max == 150_000
        assert config.distribution == "uniform"
        assert config.ingestion == "me"
        assert config.total_events == 1_000_000  # "Total number of events hence are 1M"

    def test_ds2_is_zipf(self):
        config = ds2(scale=1.0, entity_scale=1.0)
        assert config.distribution == "zipf"
        assert config.total_events == 1_000_000

    def test_ds3_matches_paper(self):
        config = ds3(scale=1.0)
        assert (config.n_shipments, config.n_containers, config.n_trucks) == (15, 5, 2)
        assert config.ingestion == "se"
        assert config.total_events == 40_000  # "Total number of events hence are 40K"


class TestScaling:
    def test_scale_shrinks_events_and_timeline_together(self):
        config = ds1(scale=0.1, entity_scale=1.0)
        assert config.events_per_key == 200
        assert config.t_max == 15_000
        # Geometry preserved: events per unit time unchanged.
        full = ds1(scale=1.0, entity_scale=1.0)
        assert config.events_per_key / config.t_max == pytest.approx(
            full.events_per_key / full.t_max
        )

    def test_entity_scale_shrinks_counts(self):
        config = ds1(scale=1.0, entity_scale=0.1)
        assert (config.n_shipments, config.n_containers, config.n_trucks) == (40, 10, 2)
        assert config.events_per_key == 2_000

    def test_events_per_key_stays_even(self):
        config = ds1(scale=0.0005, entity_scale=1.0)
        assert config.events_per_key % 2 == 0
        assert config.events_per_key >= 2

    def test_ds3_defaults_to_full_entities(self):
        config = ds3(scale=0.1)
        assert config.n_shipments == 15

    def test_env_default_entity_scale(self, monkeypatch):
        """The environment sets no scale: the default entity scale is the
        constant 0.1, whatever ``REPRO_ENTITY_SCALE`` says."""
        monkeypatch.setenv("REPRO_ENTITY_SCALE", "0.5")
        assert ds1() == ds1(entity_scale=0.1)
        assert (ds1().n_shipments, ds1().n_containers, ds1().n_trucks) == (40, 10, 2)

    def test_env_entity_scale_validation(self, monkeypatch):
        """``entity_scale`` outside (0, 1] is refused where the dataset is
        built; a malformed variable in the environment is not read."""
        monkeypatch.setenv("REPRO_ENTITY_SCALE", "zero")
        assert ds1().n_shipments == 40
        for bad in (0, -3, 1.5, float("nan")):
            with pytest.raises(ConfigError, match=r"entity_scale must be in \(0, 1\]"):
                ds1(entity_scale=bad)
            with pytest.raises(ConfigError, match=r"entity_scale must be in \(0, 1\]"):
                ds3(entity_scale=bad)

    def test_distinct_seeds_per_dataset(self):
        assert ds1().seed != ds2().seed != ds3().seed
