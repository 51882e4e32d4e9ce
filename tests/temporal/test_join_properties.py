"""Property tests: the temporal join against a point-wise oracle.

The oracle evaluates membership instant by instant -- shipment ``s`` is
inside container ``c`` at time ``t`` iff some load/unload pair satisfies
``load < t <= unload`` -- and marks ``(s, truck, t)`` whenever both
memberships hold.  The join's interval rows, expanded to points, must
cover exactly the same set.  This is independent of the placement-pairing
logic under test.

The point-wise oracle only holds for well-formed streams.  For any event
list -- random kinds and counterparts, repeated timestamps, unsorted --
the join must equal :func:`nested_loop_join`, the original
shipments × trucks loop kept here verbatim as the reference.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.temporal.events import LOAD, UNLOAD, Event
from repro.temporal.intervals import TimeInterval
from repro.temporal.join import JoinRow, Placement, temporal_join

T_MAX = 40


@st.composite
def key_events(draw, key, counterparts):
    """A valid alternating load/unload sequence for one key."""
    pair_count = draw(st.integers(min_value=0, max_value=3))
    times = sorted(
        draw(
            st.sets(
                st.integers(min_value=1, max_value=T_MAX),
                min_size=pair_count * 2,
                max_size=pair_count * 2,
            )
        )
    )
    events = []
    for index in range(0, len(times), 2):
        other = draw(st.sampled_from(counterparts))
        events.append(Event(time=times[index], key=key, other=other, kind=LOAD))
        events.append(Event(time=times[index + 1], key=key, other=other, kind=UNLOAD))
    return events


@st.composite
def scenario(draw):
    shipments = ["S1", "S2"]
    containers = ["C1", "C2"]
    trucks = ["T1", "T2"]
    shipment_events = {
        key: draw(key_events(key, containers)) for key in shipments
    }
    container_events = {
        key: draw(key_events(key, trucks)) for key in containers
    }
    return shipment_events, container_events


def membership_at(events, t, window=None):
    """The counterpart ``key`` is inside at instant ``t``, or None.

    With ``window`` set, placements with *no event inside the window* are
    treated as unknowable: a window-retrieval query (any of the paper's
    models) only sees events in ``τ``, so a placement spanning the whole
    window is invisible to it by construction.
    """
    for index in range(0, len(events), 2):
        load, unload = events[index], events[index + 1]
        if load.time < t <= unload.time:
            if window is not None and not (
                window.contains(load.time) or window.contains(unload.time)
            ):
                return None
            return load.other
    return None


def oracle_points(shipment_events, container_events, window, knowable_only=False):
    restriction = window if knowable_only else None
    points = set()
    for t in range(window.start + 1, window.end + 1):
        truck_of_container = {
            container: membership_at(events, t, restriction)
            for container, events in container_events.items()
        }
        for shipment, events in shipment_events.items():
            container = membership_at(events, t, restriction)
            if container is None:
                continue
            truck = truck_of_container.get(container)
            if truck is not None:
                points.add((shipment, truck, container, t))
    return points


def rows_to_points(rows):
    points = set()
    for row in rows:
        for t in range(row.interval.start + 1, row.interval.end + 1):
            points.add((row.shipment, row.truck, row.container, t))
    return points


@settings(max_examples=120)
@given(data=scenario())
def test_join_matches_pointwise_oracle_full_window(data):
    shipment_events, container_events = data
    window = TimeInterval(0, T_MAX)
    rows = temporal_join(shipment_events, container_events, window)
    assert rows_to_points(rows) == oracle_points(
        shipment_events, container_events, window
    )


@settings(max_examples=120)
@given(
    data=scenario(),
    start=st.integers(min_value=0, max_value=T_MAX - 1),
    length=st.integers(min_value=1, max_value=T_MAX),
)
def test_join_matches_pointwise_oracle_sub_window(data, start, length):
    """Windowed joins see clipped placements; the point sets must still
    agree inside the window."""
    shipment_events, container_events = data
    window = TimeInterval(start, min(T_MAX, start + length))
    if window.end <= window.start:
        return
    # The engine only receives events inside the window -- exactly what
    # any of the paper's retrieval paths would deliver.
    visible_shipments = {
        key: [e for e in events if window.contains(e.time)]
        for key, events in shipment_events.items()
    }
    visible_containers = {
        key: [e for e in events if window.contains(e.time)]
        for key, events in container_events.items()
    }
    rows = temporal_join(visible_shipments, visible_containers, window)
    # The oracle has FULL knowledge but honours knowability: a placement
    # with no event inside the window is invisible to window retrieval.
    oracle = oracle_points(
        shipment_events, container_events, window, knowable_only=True
    )
    assert rows_to_points(rows) == oracle


@settings(max_examples=80)
@given(data=scenario())
def test_rows_are_within_window_and_sorted(data):
    shipment_events, container_events = data
    window = TimeInterval(5, 30)
    rows = temporal_join(shipment_events, container_events, window)
    assert rows == sorted(rows)
    for row in rows:
        assert row.interval.start >= window.start
        assert row.interval.end <= window.end


# --- The nested-loop reference --------------------------------------------
# The join as it was before the bisect sweep, copied verbatim (only the
# names differ) so the new join has an oracle that shares none of its code.


def reference_placements(
    events: Iterable[Event], window: TimeInterval
) -> List[Placement]:
    placements: List[Placement] = []
    open_load: Event | None = None
    for event in sorted(events):
        if not window.contains(event.time):
            continue
        if event.is_load:
            # A dangling earlier load (malformed stream) is closed at this
            # load's time so the data stays interpretable.
            if open_load is not None and open_load.time < event.time:
                placements.append(
                    Placement(
                        key=open_load.key,
                        other=open_load.other,
                        interval=TimeInterval(open_load.time, event.time),
                    )
                )
            open_load = event
        else:
            if open_load is not None and open_load.other == event.other:
                if event.time > open_load.time:
                    placements.append(
                        Placement(
                            key=event.key,
                            other=event.other,
                            interval=TimeInterval(open_load.time, event.time),
                        )
                    )
                open_load = None
            elif event.time > window.start:
                # Unload of a load that predates the window: clip to start.
                placements.append(
                    Placement(
                        key=event.key,
                        other=event.other,
                        interval=TimeInterval(window.start, event.time),
                    )
                )
    if open_load is not None and open_load.time < window.end:
        placements.append(
            Placement(
                key=open_load.key,
                other=open_load.other,
                interval=TimeInterval(open_load.time, window.end),
            )
        )
    return placements


def nested_loop_join(
    shipment_events: Dict[str, List[Event]],
    container_events: Dict[str, List[Event]],
    window: TimeInterval,
) -> List[JoinRow]:
    # Group shipment placements by the container they happened in.
    in_container: Dict[str, List[Placement]] = defaultdict(list)
    for key, events in shipment_events.items():
        for placement in reference_placements(events, window):
            in_container[placement.other].append(placement)

    rows: List[JoinRow] = []
    for container, events in container_events.items():
        shipments_here = in_container.get(container)
        if not shipments_here:
            continue
        truck_placements = reference_placements(events, window)
        if not truck_placements:
            continue
        shipments_here.sort(key=lambda p: p.interval.start)
        truck_placements.sort(key=lambda p: p.interval.start)
        for shipment_placement in shipments_here:
            for truck_placement in truck_placements:
                if truck_placement.interval.start >= shipment_placement.interval.end:
                    break
                shared = shipment_placement.interval.intersection(
                    truck_placement.interval
                )
                if shared is not None:
                    rows.append(
                        JoinRow(
                            shipment=shipment_placement.key,
                            truck=truck_placement.other,
                            container=container,
                            interval=shared,
                        )
                    )
    rows.sort()
    return rows


#: Few distinct instants, so repeated timestamps (zero-length and
#: same-instant placements) are common.
T_DENSE = 12


def any_key_events(key, counterparts):
    """Any event list for one key: random kinds and counterparts, repeated
    timestamps, in no particular order."""
    return st.lists(
        st.builds(
            Event,
            time=st.integers(min_value=1, max_value=T_DENSE),
            key=st.just(key),
            other=st.sampled_from(counterparts),
            kind=st.sampled_from([LOAD, UNLOAD]),
        ),
        max_size=8,
    )


@st.composite
def malformed_scenario(draw):
    shipment_events = {
        key: draw(any_key_events(key, ["C1", "C2"])) for key in ("S1", "S2", "S3")
    }
    container_events = {
        key: draw(any_key_events(key, ["T1", "T2", "T3"])) for key in ("C1", "C2")
    }
    return shipment_events, container_events


@settings(max_examples=300)
@given(
    data=st.one_of(scenario(), malformed_scenario()),
    start=st.integers(min_value=0, max_value=T_DENSE),
    length=st.integers(min_value=1, max_value=T_MAX),
)
def test_join_equals_nested_loop_reference(data, start, length):
    """Row for row, on well-formed and malformed streams alike; events
    outside the window are passed in, so placements are window-clipped."""
    shipment_events, container_events = data
    window = TimeInterval(start, start + length)
    assert temporal_join(
        shipment_events, container_events, window
    ) == nested_loop_join(shipment_events, container_events, window)
