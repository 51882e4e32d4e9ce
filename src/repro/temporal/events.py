"""The event schema of the supply-chain workload.

The paper's key-value pairs look like ``⟨s, (c, t, "l")⟩``: the *key* is
the entity the event is about (a shipment or a container) and the *value*
names the counterpart (the container a shipment enters, or the truck a
container is loaded onto), the logical time, and whether the event is a
load (``"l"``) or unload (``"ul"``).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, NamedTuple

from repro.common.errors import TemporalQueryError
from repro.common.timeutils import Timestamp

LOAD = "l"
UNLOAD = "ul"
_KINDS = (LOAD, UNLOAD)
_new_tuple = tuple.__new__


class _EventFields(NamedTuple):
    time: Timestamp
    key: str
    other: str
    kind: str


class Event(_EventFields):
    """One load/unload event: a validated named tuple.

    Orders, compares and hashes as ``(time, key, other, kind)``.  Every
    way of building one -- the constructor, :meth:`_make`, ``_replace``,
    unpickling, copying -- goes through ``__new__`` and its kind and time
    checks.  A tuple, not a frozen dataclass: one is built per GHFK
    result, and a frozen dataclass pays an ``object.__setattr__`` per
    field and a ``__post_init__`` call on top.
    """

    __slots__ = ()

    def __new__(cls, time: Timestamp, key: str, other: str, kind: str) -> "Event":
        if kind not in _KINDS:
            raise TemporalQueryError(
                f"event kind must be {LOAD!r} or {UNLOAD!r}, got {kind!r}"
            )
        if time <= 0:
            raise TemporalQueryError(
                f"event time must be positive (no (start, end] interval "
                f"contains {time})"
            )
        return _new_tuple(cls, (time, key, other, kind))

    @classmethod
    def _make(cls, iterable: Iterable[Any]) -> "Event":
        return cls(*iterable)

    @property
    def is_load(self) -> bool:
        return self.kind == LOAD

    def to_value(self) -> Dict[str, Any]:
        """The ledger value ``(other, t, kind)`` of the pair ``⟨key, value⟩``."""
        return {"o": self.other, "t": self.time, "e": self.kind}

    @staticmethod
    def from_value(key: str, value: Dict[str, Any]) -> "Event":
        try:
            return Event(value["t"], key, value["o"], value["e"])
        except (KeyError, TypeError) as exc:
            raise TemporalQueryError(
                f"malformed event value for key {key!r}: {value!r}"
            ) from exc


def events_to_values(events: List[Event]) -> List[Dict[str, Any]]:
    """Serialize an event bundle (Model M1 stores ``EV(k, θ)`` this way)."""
    return [event.to_value() for event in events]


def events_from_values(key: str, values: List[Dict[str, Any]]) -> List[Event]:
    """Invert :func:`events_to_values` for one key's bundle, in one pass;
    a malformed value is re-read through :meth:`Event.from_value`, which
    raises its error."""
    try:
        return [Event(value["t"], key, value["o"], value["e"]) for value in values]
    except (KeyError, TypeError):
        return [Event.from_value(key, value) for value in values]
