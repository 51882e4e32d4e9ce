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
workload's entity ids never do.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.common.errors import TemporalQueryError
from repro.temporal.intervals import TimeInterval

SEPARATOR = "\x00"
_RANGE_END = "\x01"
_WIDTH = 12


def validate_base_key(key: str) -> str:
    """Reject keys that would break composite encoding."""
    if not key:
        raise TemporalQueryError("base key must be non-empty")
    if SEPARATOR in key or _RANGE_END in key:
        raise TemporalQueryError(
            f"base key {key!r} contains a reserved separator byte"
        )
    return key


def bound_field(timestamp: int) -> str:
    """An interval bound as spelled inside a composite key: spelled bounds
    compare as strings exactly as the timestamps compare as numbers."""
    return f"{timestamp:0{_WIDTH}d}"


def interval_key_suffix(interval: TimeInterval) -> str:
    """What :func:`encode_interval_key` appends to a base key for
    ``interval``: the same for every key, so a query visiting one interval
    under many keys spells it once."""
    return (
        f"{SEPARATOR}{interval.start:0{_WIDTH}d}"
        f"{SEPARATOR}{interval.end:0{_WIDTH}d}"
    )


def encode_interval_key(base_key: str, interval: TimeInterval) -> str:
    """The composite state key for ``(base_key, interval)``."""
    return validate_base_key(base_key) + interval_key_suffix(interval)


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
    if before is None or before >= 10 ** _WIDTH:
        return prefix, base_key + _RANGE_END
    return prefix, prefix + bound_field(before)
