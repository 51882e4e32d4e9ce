"""Tests for the synthetic workload generator and its invariants."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import WorkloadError
from repro.temporal.events import LOAD, UNLOAD
from repro.workload import model
from repro.workload.generator import WorkloadConfig, generate


def make_config(**overrides) -> WorkloadConfig:
    base = dict(
        name="test",
        n_shipments=4,
        n_containers=2,
        n_trucks=2,
        events_per_key=10,
        t_max=500,
        distribution="uniform",
        seed=1,
    )
    base.update(overrides)
    return WorkloadConfig(**base)


class TestConfigValidation:
    def test_odd_events_rejected(self):
        with pytest.raises(WorkloadError, match="even"):
            make_config(events_per_key=9)

    def test_non_positive_counts_rejected(self):
        with pytest.raises(WorkloadError):
            make_config(n_shipments=0)

    def test_tiny_timeline_rejected(self):
        with pytest.raises(WorkloadError, match="too small"):
            make_config(events_per_key=100, t_max=150)

    def test_unknown_distribution_rejected(self):
        # "burst" was a distribution once; its sampler is deleted.
        for distribution in ("gaussian", "burst"):
            with pytest.raises(WorkloadError):
                make_config(distribution=distribution)

    def test_derived_counts(self):
        config = make_config()
        assert config.key_count == 6
        assert config.total_events == 60


class TestGeneratedStream:
    def test_total_event_count(self):
        data = generate(make_config())
        assert len(data.events) == 60

    def test_globally_sorted_by_time(self):
        data = generate(make_config())
        times = [event.time for event in data.events]
        assert times == sorted(times)

    def test_entity_ids(self):
        data = generate(make_config())
        assert data.shipments == [model.shipment_id(i) for i in range(4)]
        assert data.containers == [model.container_id(i) for i in range(2)]
        assert data.trucks == [model.truck_id(i) for i in range(2)]

    def test_shipments_reference_containers(self):
        data = generate(make_config())
        for event in data.events:
            if event.key in data.shipments:
                assert event.other in data.containers
            else:
                assert event.other in data.trucks

    def test_deterministic_under_seed(self):
        assert generate(make_config(seed=5)).events == generate(make_config(seed=5)).events

    def test_different_seeds_differ(self):
        assert generate(make_config(seed=5)).events != generate(make_config(seed=6)).events

    def test_events_by_key_counts(self):
        data = generate(make_config())
        grouped = data.events_by_key()
        assert len(grouped) == 6
        assert all(len(events) == 10 for events in grouped.values())


def assert_key_invariants(events, t_max):
    """Per-key invariants the paper's generator description implies."""
    assert len(events) % 2 == 0
    times = [event.time for event in events]
    assert times == sorted(times)
    assert len(set(times)) == len(times), "per-key times must be distinct"
    for index in range(0, len(events), 2):
        load, unload = events[index], events[index + 1]
        assert load.kind == LOAD
        assert unload.kind == UNLOAD
        assert load.other == unload.other, "pairs share the counterpart"
        assert load.time < unload.time
        assert unload.time <= t_max
        if index + 2 < len(events):
            next_load = events[index + 2]
            assert unload.time < next_load.time, "unload before the next load"


class TestInvariants:
    def test_small_config(self):
        config = make_config()
        data = generate(config)
        for key, events in data.events_by_key().items():
            assert_key_invariants(events, config.t_max)

    def test_zipf_config(self):
        config = make_config(distribution="zipf", events_per_key=20, t_max=2_000)
        data = generate(config)
        for events in data.events_by_key().values():
            assert_key_invariants(events, config.t_max)

    def test_zipf_is_front_loaded(self):
        """DS2's defining property: a large share of events lands early."""
        config = make_config(
            distribution="zipf", n_shipments=20, events_per_key=100, t_max=10_000,
            seed=3,
        )
        data = generate(config)
        first_fifth = sum(1 for e in data.events if e.time <= 2_000)
        assert first_fifth > len(data.events) * 0.3

    def test_uniform_is_spread_out(self):
        config = make_config(
            n_shipments=20, events_per_key=100, t_max=10_000, seed=3
        )
        data = generate(config)
        first_fifth = sum(1 for e in data.events if e.time <= 2_000)
        assert 0.1 < first_fifth / len(data.events) < 0.35

    @settings(max_examples=25)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        events_per_key=st.sampled_from([2, 4, 10, 40]),
        distribution=st.sampled_from(["uniform", "zipf"]),
        t_max=st.sampled_from([200, 1_000, 5_000]),
    )
    def test_invariants_property(self, seed, events_per_key, distribution, t_max):
        config = make_config(
            seed=seed,
            events_per_key=events_per_key,
            distribution=distribution,
            t_max=t_max,
            n_shipments=3,
            n_containers=2,
        )
        data = generate(config)
        assert len(data.events) == config.total_events
        for events in data.events_by_key().values():
            assert_key_invariants(events, config.t_max)
