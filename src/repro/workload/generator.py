"""The synthetic event generator (Section IV-2).

Parameters match the paper: entity counts ``(nS, nC, nTr)``, events per
key ``nEv``, load-time distribution ``dEv`` and timeline length
``t_max``.  For each key:

1. ``nEv / 2`` load times are drawn from the distribution, then repaired
   to be strictly increasing with room for an unload between consecutive
   loads;
2. each unload time is "randomly chosen at any point before the start of
   the next load event" (the last one anywhere before ``t_max``];
3. every load/unload pair names a random counterpart -- a container for
   shipment keys, a truck for container keys.

The generator guarantees the invariants the join logic and the tests rely
on: per key, events strictly increase in time and alternate load/unload
with matching counterparts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List

from repro.common.errors import WorkloadError
from repro.temporal.events import LOAD, UNLOAD, Event
from repro.workload import model
from repro.workload.distributions import make_sampler


@dataclass(frozen=True)
class WorkloadConfig:
    """Generator parameters (the paper's ``nS, nC, nTr, nEv, dEv, t_max``)."""

    name: str
    n_shipments: int
    n_containers: int
    n_trucks: int
    events_per_key: int
    t_max: int
    distribution: str = "uniform"
    seed: int = 7
    #: Ingestion strategy the dataset is meant to be loaded with
    #: ("se" or "me"); carried here because the paper fixes it per dataset.
    ingestion: str = "me"

    def __post_init__(self) -> None:
        for label, value in (
            ("n_shipments", self.n_shipments),
            ("n_containers", self.n_containers),
            ("n_trucks", self.n_trucks),
            ("events_per_key", self.events_per_key),
            ("t_max", self.t_max),
        ):
            if value <= 0:
                raise WorkloadError(f"{label} must be positive, got {value}")
        if self.events_per_key % 2:
            raise WorkloadError(
                f"events_per_key must be even (load/unload pairs), "
                f"got {self.events_per_key}"
            )
        if self.distribution not in ("uniform", "zipf"):
            raise WorkloadError(f"unknown distribution {self.distribution!r}")
        if self.ingestion not in ("se", "me"):
            raise WorkloadError(f"ingestion must be 'se' or 'me', got {self.ingestion!r}")
        # Each pair needs at least 2 timeline slots (load < unload).
        if self.t_max < self.events_per_key * 2:
            raise WorkloadError(
                f"t_max={self.t_max} too small for {self.events_per_key} "
                f"events per key"
            )

    @property
    def key_count(self) -> int:
        """Keys carrying events: shipments + containers (trucks only appear
        as values)."""
        return self.n_shipments + self.n_containers

    @property
    def total_events(self) -> int:
        return self.key_count * self.events_per_key


@dataclass
class WorkloadData:
    """A generated workload: the global time-ordered event stream."""

    config: WorkloadConfig
    events: List[Event]
    shipments: List[str] = field(default_factory=list)
    containers: List[str] = field(default_factory=list)
    trucks: List[str] = field(default_factory=list)

    def events_by_key(self) -> Dict[str, List[Event]]:
        """All events grouped per key, preserving time order."""
        grouped: Dict[str, List[Event]] = {}
        for event in self.events:
            grouped.setdefault(event.key, []).append(event)
        return grouped


def generate(config: WorkloadConfig) -> WorkloadData:
    """Generate the full event stream for ``config``, sorted by time."""
    rng = random.Random(config.seed)
    shipments = [model.shipment_id(i) for i in range(config.n_shipments)]
    containers = [model.container_id(i) for i in range(config.n_containers)]
    trucks = [model.truck_id(i) for i in range(config.n_trucks)]

    events: List[Event] = []
    for shipment in shipments:
        events.extend(_events_for_key(config, rng, shipment, containers))
    for container in containers:
        events.extend(_events_for_key(config, rng, container, trucks))
    events.sort()
    return WorkloadData(
        config=config,
        events=events,
        shipments=shipments,
        containers=containers,
        trucks=trucks,
    )


def _events_for_key(
    config: WorkloadConfig,
    rng: random.Random,
    key: str,
    counterparts: List[str],
) -> List[Event]:
    pair_count = config.events_per_key // 2
    load_times = _draw_load_times(config, rng, pair_count)
    events: List[Event] = []
    for index, load_time in enumerate(load_times):
        # Unload anywhere strictly after the load and strictly before the
        # next load (the last pair may run until t_max).
        if index + 1 < len(load_times):
            unload_bound = load_times[index + 1] - 1
        else:
            unload_bound = config.t_max
        unload_time = rng.randint(load_time + 1, max(load_time + 1, unload_bound))
        other = rng.choice(counterparts)
        events.append(Event(time=load_time, key=key, other=other, kind=LOAD))
        events.append(Event(time=unload_time, key=key, other=other, kind=UNLOAD))
    return events


def _draw_load_times(
    config: WorkloadConfig, rng: random.Random, pair_count: int
) -> List[int]:
    """Draw load times from ``dEv`` and repair them to leave room for an
    unload between consecutive loads (gap >= 2)."""
    sampler = make_sampler(config.distribution, rng, config.t_max)
    # Loads may not start at t_max (the unload needs a later slot).
    times = sorted(min(sampler.sample(), config.t_max - 1) for _ in range(pair_count))
    repaired: List[int] = []
    previous = -1
    for time in times:
        time = max(time, previous + 2)
        repaired.append(time)
        previous = time
    if repaired and repaired[-1] >= config.t_max:
        # The repair pushed the tail past the timeline; re-space the
        # overflowing suffix backwards from t_max - 1.
        limit = config.t_max - 1
        for index in range(len(repaired) - 1, -1, -1):
            if repaired[index] > limit:
                repaired[index] = limit
            limit = repaired[index] - 2
            if limit < 1 and index > 0:
                raise WorkloadError(
                    f"cannot fit {pair_count} load/unload pairs for key into "
                    f"t_max={config.t_max}"
                )
    return repaired
