"""Tests for placement pairing and the temporal join Q."""

from __future__ import annotations

from repro.temporal.events import LOAD, UNLOAD, Event
from repro.temporal.intervals import TimeInterval
from repro.temporal.join import JoinRow, Placement, build_placements, temporal_join


def ev(time, key, other, kind):
    return Event(time=time, key=key, other=other, kind=kind)


WINDOW = TimeInterval(0, 100)


class TestBuildPlacements:
    def test_simple_pair(self):
        events = [ev(10, "S1", "C1", LOAD), ev(20, "S1", "C1", UNLOAD)]
        assert build_placements(events, WINDOW) == [
            Placement("S1", "C1", TimeInterval(10, 20))
        ]

    def test_multiple_pairs_different_containers(self):
        events = [
            ev(10, "S1", "C1", LOAD),
            ev(20, "S1", "C1", UNLOAD),
            ev(30, "S1", "C2", LOAD),
            ev(45, "S1", "C2", UNLOAD),
        ]
        placements = build_placements(events, WINDOW)
        assert [p.other for p in placements] == ["C1", "C2"]
        assert [p.interval for p in placements] == [
            TimeInterval(10, 20),
            TimeInterval(30, 45),
        ]

    def test_open_load_clipped_to_window_end(self):
        events = [ev(80, "S1", "C1", LOAD)]
        assert build_placements(events, WINDOW) == [
            Placement("S1", "C1", TimeInterval(80, 100))
        ]

    def test_orphan_unload_clipped_to_window_start(self):
        window = TimeInterval(50, 100)
        events = [ev(60, "S1", "C1", UNLOAD)]
        assert build_placements(events, window) == [
            Placement("S1", "C1", TimeInterval(50, 60))
        ]

    def test_events_outside_window_ignored(self):
        window = TimeInterval(50, 100)
        events = [
            ev(10, "S1", "C1", LOAD),
            ev(20, "S1", "C1", UNLOAD),
            ev(60, "S1", "C2", LOAD),
            ev(70, "S1", "C2", UNLOAD),
        ]
        assert build_placements(events, window) == [
            Placement("S1", "C2", TimeInterval(60, 70))
        ]

    def test_unsorted_input_is_sorted(self):
        events = [ev(20, "S1", "C1", UNLOAD), ev(10, "S1", "C1", LOAD)]
        assert build_placements(events, WINDOW) == [
            Placement("S1", "C1", TimeInterval(10, 20))
        ]

    def test_empty_events(self):
        assert build_placements([], WINDOW) == []


class TestTemporalJoin:
    def test_shipment_meets_truck_via_container(self):
        shipment_events = {
            "S1": [ev(10, "S1", "C1", LOAD), ev(40, "S1", "C1", UNLOAD)]
        }
        container_events = {
            "C1": [ev(20, "C1", "T1", LOAD), ev(60, "C1", "T1", UNLOAD)]
        }
        rows = temporal_join(shipment_events, container_events, WINDOW)
        assert rows == [
            JoinRow("S1", "T1", "C1", TimeInterval(20, 40))
        ]

    def test_no_temporal_overlap_no_row(self):
        shipment_events = {
            "S1": [ev(10, "S1", "C1", LOAD), ev(20, "S1", "C1", UNLOAD)]
        }
        container_events = {
            "C1": [ev(30, "C1", "T1", LOAD), ev(60, "C1", "T1", UNLOAD)]
        }
        assert temporal_join(shipment_events, container_events, WINDOW) == []

    def test_different_container_no_row(self):
        shipment_events = {
            "S1": [ev(10, "S1", "C1", LOAD), ev(40, "S1", "C1", UNLOAD)]
        }
        container_events = {
            "C2": [ev(10, "C2", "T1", LOAD), ev(40, "C2", "T1", UNLOAD)]
        }
        assert temporal_join(shipment_events, container_events, WINDOW) == []

    def test_shipment_rides_two_trucks(self):
        """Container switches trucks while the shipment stays inside."""
        shipment_events = {
            "S1": [ev(10, "S1", "C1", LOAD), ev(90, "S1", "C1", UNLOAD)]
        }
        container_events = {
            "C1": [
                ev(20, "C1", "T1", LOAD),
                ev(40, "C1", "T1", UNLOAD),
                ev(50, "C1", "T2", LOAD),
                ev(80, "C1", "T2", UNLOAD),
            ]
        }
        rows = temporal_join(shipment_events, container_events, WINDOW)
        assert rows == [
            JoinRow("S1", "T1", "C1", TimeInterval(20, 40)),
            JoinRow("S1", "T2", "C1", TimeInterval(50, 80)),
        ]

    def test_two_shipments_share_a_truck(self):
        shipment_events = {
            "S1": [ev(10, "S1", "C1", LOAD), ev(50, "S1", "C1", UNLOAD)],
            "S2": [ev(15, "S2", "C1", LOAD), ev(45, "S2", "C1", UNLOAD)],
        }
        container_events = {
            "C1": [ev(20, "C1", "T1", LOAD), ev(40, "C1", "T1", UNLOAD)]
        }
        rows = temporal_join(shipment_events, container_events, WINDOW)
        assert {(row.shipment, row.truck) for row in rows} == {
            ("S1", "T1"),
            ("S2", "T1"),
        }
        assert all(row.interval == TimeInterval(20, 40) for row in rows)

    def test_rows_sorted(self):
        shipment_events = {
            "S2": [ev(10, "S2", "C1", LOAD), ev(40, "S2", "C1", UNLOAD)],
            "S1": [ev(10, "S1", "C1", LOAD), ev(40, "S1", "C1", UNLOAD)],
        }
        container_events = {
            "C1": [ev(10, "C1", "T1", LOAD), ev(40, "C1", "T1", UNLOAD)]
        }
        rows = temporal_join(shipment_events, container_events, WINDOW)
        assert [row.shipment for row in rows] == ["S1", "S2"]

    def test_empty_inputs(self):
        assert temporal_join({}, {}, WINDOW) == []
        assert temporal_join({"S1": []}, {"C1": []}, WINDOW) == []

    def test_adjacent_intervals_do_not_join(self):
        """(10,20] and (20,30] share only the boundary point 20; under
        (start,end] semantics they do not overlap."""
        shipment_events = {
            "S1": [ev(10, "S1", "C1", LOAD), ev(20, "S1", "C1", UNLOAD)]
        }
        container_events = {
            "C1": [ev(20, "C1", "T1", LOAD), ev(30, "C1", "T1", UNLOAD)]
        }
        assert temporal_join(shipment_events, container_events, WINDOW) == []

    def test_truck_ending_at_shipment_start_does_not_join(self):
        """The bisect boundary: a truck placement ending exactly where the
        shipment placement starts is skipped, not joined."""
        shipment_events = {
            "S1": [ev(20, "S1", "C1", LOAD), ev(30, "S1", "C1", UNLOAD)]
        }
        container_events = {
            "C1": [ev(10, "C1", "T1", LOAD), ev(20, "C1", "T1", UNLOAD)]
        }
        assert temporal_join(shipment_events, container_events, WINDOW) == []

    def test_adjacent_trucks_under_one_shipment(self):
        shipment_events = {
            "S1": [ev(15, "S1", "C1", LOAD), ev(25, "S1", "C1", UNLOAD)]
        }
        container_events = {
            "C1": [
                ev(10, "C1", "T1", LOAD),
                ev(20, "C1", "T1", UNLOAD),
                ev(20, "C1", "T2", LOAD),
                ev(30, "C1", "T2", UNLOAD),
            ]
        }
        rows = temporal_join(shipment_events, container_events, WINDOW)
        assert rows == [
            JoinRow("S1", "T1", "C1", TimeInterval(15, 20)),
            JoinRow("S1", "T2", "C1", TimeInterval(20, 25)),
        ]

    def test_overlapping_truck_placements_from_malformed_stream(self):
        """An unload of T2 while T1's load is open: T2's placement is
        clipped to the window start and overlaps T1's."""
        window = TimeInterval(50, 100)
        shipment_events = {
            "S1": [ev(55, "S1", "C1", LOAD), ev(90, "S1", "C1", UNLOAD)]
        }
        container_events = {
            "C1": [ev(60, "C1", "T1", LOAD), ev(70, "C1", "T2", UNLOAD)]
        }
        rows = temporal_join(shipment_events, container_events, window)
        assert rows == [
            JoinRow("S1", "T1", "C1", TimeInterval(60, 90)),
            JoinRow("S1", "T2", "C1", TimeInterval(55, 70)),
        ]

    def test_early_long_truck_placement_covers_later_short_ones(self):
        """T1's orphan unload at 90 opens at the window start, so its
        placement (0, 90] covers T2's (20, 30] and T3's (40, 50]: a
        shipment after both short ones still meets T1, and one across
        them meets all three."""
        shipment_events = {
            "S1": [ev(25, "S1", "C1", LOAD), ev(45, "S1", "C1", UNLOAD)],
            "S2": [ev(60, "S2", "C1", LOAD), ev(80, "S2", "C1", UNLOAD)],
        }
        container_events = {
            "C1": [
                ev(20, "C1", "T2", LOAD),
                ev(30, "C1", "T2", UNLOAD),
                ev(40, "C1", "T3", LOAD),
                ev(50, "C1", "T3", UNLOAD),
                ev(90, "C1", "T1", UNLOAD),
            ]
        }
        rows = temporal_join(shipment_events, container_events, WINDOW)
        assert rows == [
            JoinRow("S1", "T1", "C1", TimeInterval(25, 45)),
            JoinRow("S1", "T2", "C1", TimeInterval(25, 30)),
            JoinRow("S1", "T3", "C1", TimeInterval(40, 45)),
            JoinRow("S2", "T1", "C1", TimeInterval(60, 80)),
        ]
