"""The temporal join query Q (Section IV-1).

Given a window ``τ = (t_s, t_e]``, find for each shipment the trucks that
ferried it during ``τ`` and the associated time intervals.  Two event
streams feed the join:

* shipment events: ``⟨s, (c, t, l/ul)⟩`` -- shipment ``s`` entered/left
  container ``c``;
* container events: ``⟨c, (tr, t, l/ul)⟩`` -- container ``c`` was loaded
  onto / unloaded from truck ``tr``.

Consecutive load/unload events of a key pair into *placement intervals*
(shipment-inside-container, container-on-truck).  A shipment rode truck
``tr`` whenever its container placement overlaps the container's truck
placement; the answer interval is the intersection.  Events clipped by
the window produce open-ended placements clamped to the window bounds.

Per container the join sorts the truck placements by start and keeps the
running maximum of their ends.  A bisect on that maximum skips every truck
placement that ends at or before a shipment placement starts; a forward
walk then stops at the first truck placement starting at or after the
shipment placement ends.  With ``S`` shipment and ``T`` truck placements
and ``R`` rows a container costs ``O((S + T) log T + R)`` when its truck
placements are disjoint, as a well-formed stream's always are.  Truck
placements overlap only in a malformed stream (an orphan unload clipped
to ``t_s`` while a load is open); the walk then also visits trucks an
earlier, longer placement covers, which costs more but stays exact.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, Iterable, List, Tuple

from repro.common.timeutils import Timestamp
from repro.temporal.events import Event
from repro.temporal.intervals import TimeInterval

#: A placement ``(start, end, other, key)``: ``key`` was inside/on
#: ``other`` during ``(start, end]``.
_Span = Tuple[Timestamp, Timestamp, str, str]


@dataclass(frozen=True, order=True)
class Placement:
    """Key ``key`` was inside/on ``other`` during ``interval``."""

    key: str
    other: str
    interval: TimeInterval


@dataclass(frozen=True, order=True)
class JoinRow:
    """One result row: shipment ``shipment`` rode ``truck`` during
    ``interval``, inside ``container``."""

    shipment: str
    truck: str
    container: str
    interval: TimeInterval


def build_placements(
    events: Iterable[Event], window: TimeInterval
) -> List[Placement]:
    """Pair load/unload events into placement intervals, clipped to ``window``.

    Events must belong to a single key.  A load with no unload before the
    window ends stays open to ``window.end``; an unload whose load happened
    before the window started opens at ``window.start``.  Zero-length
    placements (load and unload at the same instant, or intervals clipped
    to nothing) are dropped.
    """
    return [
        Placement(key, other, TimeInterval(start, end))
        for start, end, other, key in _spans(events, window)
    ]


def _spans(events: Iterable[Event], window: TimeInterval) -> List[_Span]:
    """:func:`build_placements` as plain tuples, in the same order."""
    spans: List[_Span] = []
    window_start, window_end = window.start, window.end
    open_load: Event | None = None
    for event in sorted(events):
        time = event.time
        if not window_start < time <= window_end:
            continue
        if event.is_load:
            # A dangling earlier load (malformed stream) is closed at this
            # load's time so the data stays interpretable.
            if open_load is not None and open_load.time < time:
                spans.append((open_load.time, time, open_load.other, open_load.key))
            open_load = event
        elif open_load is not None and open_load.other == event.other:
            if time > open_load.time:
                spans.append((open_load.time, time, event.other, event.key))
            open_load = None
        else:
            # Unload of a load that predates the window: clip to start.
            spans.append((window_start, time, event.other, event.key))
    if open_load is not None and open_load.time < window_end:
        spans.append((open_load.time, window_end, open_load.other, open_load.key))
    return spans


def temporal_join(
    shipment_events: Dict[str, List[Event]],
    container_events: Dict[str, List[Event]],
    window: TimeInterval,
) -> List[JoinRow]:
    """Compute query Q from per-key event lists.

    One bisect-and-walk pass per container (see the module docstring for
    the algorithm and its cost); rows are kept as tuples, sorted once and
    only then turned into :class:`JoinRow` objects.

    Args:
        shipment_events: shipment key -> its events inside the window.
        container_events: container key -> its events inside the window.
        window: the query interval ``τ``.

    Returns:
        Sorted join rows ``(shipment, truck, container, interval)``.
    """
    # Group shipment placements by the container they happened in.
    in_container: Dict[str, List[_Span]] = defaultdict(list)
    for events in shipment_events.values():
        for span in _spans(events, window):
            in_container[span[2]].append(span)

    found: List[Tuple[str, str, str, Timestamp, Timestamp]] = []
    for container, events in container_events.items():
        shipments_here = in_container.get(container)
        if not shipments_here:
            continue
        trucks = sorted(_spans(events, window))
        # reach[i]: the latest end among trucks[0..i]; every truck before
        # the first reach past a shipment's start ends before it.
        reach = list(accumulate([span[1] for span in trucks], max))
        for start, end, _, shipment in shipments_here:
            for index in range(bisect_right(reach, start), len(trucks)):
                truck_start, truck_end, truck, _ = trucks[index]
                if truck_start >= end:
                    break
                if truck_end > start:
                    found.append(
                        (
                            shipment,
                            truck,
                            container,
                            max(start, truck_start),
                            min(end, truck_end),
                        )
                    )
    found.sort()
    return [
        JoinRow(shipment, truck, container, TimeInterval(start, end))
        for shipment, truck, container, start, end in found
    ]
