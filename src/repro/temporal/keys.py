"""Composite key encoding for interval-tagged ledger keys.

Both models form "new keys" ``(k, θ)`` from a base key and an index
interval.  We encode them as::

    <base-key> \\x00 <start:012d> \\x00 <end:012d>

The ``\\x00`` separator sorts below every printable character, and the
zero-padded bounds sort numerically, so a ``GetStateByRange`` over
``[k\\x00, k\\x01)`` enumerates exactly key ``k``'s index intervals in
temporal order -- the operation Model M2's query planner relies on
(Section VII-1).

Base keys must not contain ``\\x00``/``\\x01`` themselves; the supply-chain
workload's entity ids never do.  A bound spelled into a key must be below
:data:`BOUND_CAP` (``10**12``): a thirteen-digit bound would sort before
smaller ones, so :func:`interval_key_suffix` refuses it.  Query windows
are never spelled as keys and take any bound.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.common.errors import TemporalQueryError
from repro.temporal.intervals import TimeInterval

SEPARATOR = "\x00"
#: The character after :data:`SEPARATOR`: ``k\x01`` is the exclusive end
#: of base key ``k``'s interval keys.
RANGE_END = "\x01"
_WIDTH = 12

#: Every interval bound spelled into a ``(k, θ)`` key is below this: the
#: bound field is ``_WIDTH`` digits wide.
BOUND_CAP = 10 ** _WIDTH

#: One bound field, and the ``(k, θ)`` suffix of two; ``%``-formatting
#: spells an integer field in half the time an f-string's format spec does.
_FIELD = f"%0{_WIDTH}d"
_SUFFIX = SEPARATOR + _FIELD + SEPARATOR + _FIELD

#: Exclusive upper bound of a prefix scan (the engines' ``list_keys``):
#: Fabric's ``maxUnicodeRuneValue``, the largest code point the text after
#: the prefix can start with.
MAX_UNICODE_RUNE = "\U0010ffff"


def validate_base_key(key: str) -> str:
    """Reject keys that would break composite encoding."""
    if not key:
        raise TemporalQueryError("base key must be non-empty")
    if SEPARATOR in key or RANGE_END in key:
        raise TemporalQueryError(
            f"base key {key!r} contains a reserved separator byte"
        )
    return key


def bound_field(timestamp: int) -> str:
    """An interval bound as spelled inside a composite key: spelled bounds
    compare as strings exactly as the timestamps compare as numbers."""
    return _FIELD % timestamp


def interval_key_suffix(start: int, end: int) -> str:
    """What a ``(k, θ)`` key appends to its base key for ``θ = (start,
    end]``: the same for every key, so a query visiting one interval under
    many keys spells it once.  The one spelling of an interval key, from
    integers; raises :class:`TemporalQueryError` unless ``0 <= start < end
    < BOUND_CAP``."""
    if not 0 <= start < end < BOUND_CAP:
        raise TemporalQueryError(
            f"index interval ({start}, {end}] cannot be spelled as a key: "
            f"bounds must satisfy 0 <= start < end < {BOUND_CAP} (the "
            f"{_WIDTH}-digit bound field)"
        )
    return _SUFFIX % (start, end)


def encode_interval_key(base_key: str, interval: TimeInterval) -> str:
    """The composite state key for ``(base_key, interval)``."""
    return validate_base_key(base_key) + interval_key_suffix(
        interval.start, interval.end
    )


def decode_interval_key(composite: str) -> Tuple[str, TimeInterval]:
    """Invert :func:`encode_interval_key`."""
    parts = composite.split(SEPARATOR)
    if len(parts) != 3:
        raise TemporalQueryError(f"not a composite interval key: {composite!r}")
    base_key, start_raw, end_raw = parts
    try:
        interval = TimeInterval(int(start_raw), int(end_raw))
    except ValueError:
        raise TemporalQueryError(
            f"malformed interval bounds in key: {composite!r}"
        ) from None
    return base_key, interval


def is_interval_key(key: str) -> bool:
    """True when ``key`` is a composite ``(k, θ)`` key."""
    return SEPARATOR in key


def interval_key_range(base_key: str, before: Optional[int] = None) -> Tuple[str, str]:
    """``(start, end)`` bounds scanning the interval keys of ``base_key``:
    all, or (the start field leads the key) those starting before ``before``."""
    validate_base_key(base_key)
    prefix = base_key + SEPARATOR
    if before is None or before >= BOUND_CAP:
        return prefix, base_key + RANGE_END
    return prefix, prefix + bound_field(before)
