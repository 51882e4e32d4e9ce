"""The scheme axioms, checked by bounded symbolic probing.

Every check here materializes the symbolic probe terms of
:mod:`repro.analysis.symbolic.terms` over the ``u``-grid and drives the
*project's own* interval and scheme classes through them, comparing the
results against the algebraic expectations the paper's ``(t1, t2]``
convention dictates.  The axioms:

* **TEMP002 -- scheme axioms.**  ``interval_for`` covers every positive
  timestamp (``start < t <= end`` arithmetically) with ``u``-aligned,
  pairwise-disjoint, gap-free intervals; ``previous_interval`` walks
  back monotonically to ``None`` exactly at the timeline start;
  ``intervals_overlapping`` agrees with ``interval_for`` and returns
  only genuinely overlapping intervals; ``partition`` /
  ``partition_clipped`` tile their window exactly.

* **TEMP004 -- boundary convention.**  The half-open ``(lo, hi]``
  contract: ``contains`` excludes the start and includes the end,
  ``overlaps``/``intersection`` agree with the endpoint arithmetic, no
  interval contains ``0``, ``t = k*u`` lands in ``((k-1)u, ku]``, and
  ``interval_for``'s arithmetic agrees with ``contains`` at every
  boundary.
"""

from __future__ import annotations

import inspect
import itertools
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.analysis.symbolic.terms import (
    K_RANGE,
    U_GRID,
    materialize_timestamps,
    materialize_windows,
)

#: Walk limit for the previous_interval monotonicity check.
_PREV_WALK_LIMIT = 64


@dataclass(frozen=True)
class Violation:
    """One convicted axiom, anchored at a class method definition."""

    rule: str
    relpath: str
    class_name: str
    method: str
    kind: str
    witness: str

    def dedup_key(self) -> Tuple[str, str, str, str, str]:
        """Identity used to keep one witness per convicted axiom."""
        return (self.rule, self.relpath, self.class_name, self.method, self.kind)


class Tally:
    """Counts individual axiom checks (reported, and benchmarked)."""

    def __init__(self) -> None:
        self.checks = 0

    def tick(self, n: int = 1) -> None:
        """Record ``n`` executed checks."""
        self.checks += n


def _ends(interval: Any) -> Optional[Tuple[int, int]]:
    """``(start, end)`` if the object looks like a time interval."""
    start = getattr(interval, "start", None)
    end = getattr(interval, "end", None)
    if isinstance(start, int) and isinstance(end, int):
        return start, end
    return None


# ---------------------------------------------------------------------------
# TEMP004: the interval value class itself
# ---------------------------------------------------------------------------


def check_interval_class(
    ti_cls: type, relpath: str, tally: Tally
) -> List[Violation]:
    """The half-open ``(lo, hi]`` contract on the interval class."""
    violations: List[Violation] = []

    def convict(method: str, kind: str, witness: str) -> None:
        violations.append(
            Violation("TEMP004", relpath, ti_cls.__name__, method, kind, witness)
        )

    try:
        probe = ti_cls(2, 5)
    except Exception as exc:  # repro-lint: disable=ERR001 -- convict, don't crash
        convict(
            "__init__",
            "construction",
            f"TimeInterval(2, 5) raised {type(exc).__name__}: {exc}",
        )
        return violations
    expectations = [(2, False), (3, True), (5, True), (6, False), (1, False)]
    for timestamp, expected in expectations:
        tally.tick()
        try:
            got = bool(probe.contains(timestamp))
        except Exception as exc:  # repro-lint: disable=ERR001
            convict("contains", "half-open", f"contains({timestamp}) raised {exc!r}")
            break
        if got != expected:
            convict(
                "contains",
                "half-open",
                f"(2, 5].contains({timestamp}) is {got}, must be {expected} "
                "under the exclusive-start/inclusive-end convention",
            )
            break
    pairs = [(0, 2), (2, 5), (1, 3), (5, 9), (4, 9), (0, 1), (2, 3)]
    for (a_lo, a_hi), (b_lo, b_hi) in itertools.product(pairs, repeat=2):
        tally.tick()
        a, b = ti_cls(a_lo, a_hi), ti_cls(b_lo, b_hi)
        expected_overlap = a_lo < b_hi and b_lo < a_hi
        if bool(a.overlaps(b)) != expected_overlap:
            convict(
                "overlaps",
                "overlaps-arithmetic",
                f"({a_lo}, {a_hi}].overlaps(({b_lo}, {b_hi}]) is "
                f"{not expected_overlap}; endpoint arithmetic says "
                f"{expected_overlap}",
            )
            break
        meet = a.intersection(b)
        lo, hi = max(a_lo, b_lo), min(a_hi, b_hi)
        expected_meet = (lo, hi) if lo < hi else None
        got_meet = _ends(meet) if meet is not None else None
        if got_meet != expected_meet:
            convict(
                "intersection",
                "intersection-arithmetic",
                f"({a_lo}, {a_hi}] ∩ ({b_lo}, {b_hi}] returned {got_meet}, "
                f"expected {expected_meet}",
            )
            break
    tally.tick()
    try:
        ti_cls(3, 3)
    except Exception:  # repro-lint: disable=ERR001 -- rejection is the contract
        pass
    else:
        convict(
            "__init__",
            "empty-interval",
            "TimeInterval(3, 3) was accepted; (t, t] is empty under the "
            "half-open convention and must be rejected",
        )
    return violations


# ---------------------------------------------------------------------------
# TEMP002 / TEMP004: interval schemes
# ---------------------------------------------------------------------------


def check_scheme_class(
    cls: type,
    ti_cls: Optional[type],
    relpath: str,
    tally: Tally,
    notes: List[str],
) -> List[Violation]:
    """Drive one scheme class through the probe grid."""
    violations: List[Violation] = []
    try:
        required = [
            name
            for name, param in inspect.signature(cls).parameters.items()
            if param.default is param.empty
            and param.kind not in (param.VAR_POSITIONAL, param.VAR_KEYWORD)
        ]
    except (TypeError, ValueError):
        required = []
    if required != ["u"]:
        notes.append(
            f"{relpath}: {cls.__name__} is not constructed from u alone; "
            "scheme not verified"
        )
        return violations
    for u in U_GRID:
        try:
            scheme = cls(u=u)
        except Exception as exc:  # repro-lint: disable=ERR001
            violations.append(
                Violation(
                    "TEMP002", relpath, cls.__name__, "__init__",
                    "construction",
                    f"{cls.__name__}(u={u}) raised {exc!r}",
                )
            )
            return violations
        violations.extend(
            _check_scheme_instance(scheme, cls, ti_cls, relpath, u, tally)
        )
    return _dedup(violations)


def _check_scheme_instance(
    scheme: Any,
    cls: type,
    ti_cls: Optional[type],
    relpath: str,
    u: int,
    tally: Tally,
) -> List[Violation]:
    violations: List[Violation] = []
    name = cls.__name__

    def convict(rule: str, method: str, kind: str, witness: str) -> None:
        violations.append(Violation(rule, relpath, name, kind=kind,
                                    method=method, witness=f"u={u}: {witness}"))

    # -- interval_for: cover, alignment, contains agreement ---------------
    dense = list(range(1, min(3 * u + 3, 32)))
    timestamps = sorted(set(materialize_timestamps(u)) | set(dense))
    by_timestamp: Dict[int, Tuple[int, int]] = {}
    for t in timestamps:
        tally.tick()
        try:
            interval = scheme.interval_for(t)
        except Exception as exc:  # repro-lint: disable=ERR001
            convict(
                "TEMP002", "interval_for", "total-cover",
                f"interval_for({t}) raised {type(exc).__name__}: {exc} -- "
                "every positive timestamp must have an index interval",
            )
            continue
        ends = _ends(interval)
        if ends is None:
            convict(
                "TEMP002", "interval_for", "total-cover",
                f"interval_for({t}) returned {interval!r}, not an interval",
            )
            continue
        start, end = ends
        by_timestamp[t] = ends
        if not (start < t <= end):
            convict(
                "TEMP002", "interval_for", "total-cover",
                f"interval_for({t}) = ({start}, {end}] does not contain "
                f"{t} arithmetically (need start < t <= end)",
            )
            continue
        if start % u != 0 or end - start != u:
            convict(
                "TEMP002", "interval_for", "alignment",
                f"interval_for({t}) = ({start}, {end}] is not a u-aligned "
                f"length-u interval",
            )
        tally.tick()
        try:
            agreed = bool(interval.contains(t))
        except Exception:  # repro-lint: disable=ERR001
            agreed = False
        if not agreed:
            convict(
                "TEMP004", "interval_for", "contains-mismatch",
                f"interval_for({t}) = ({start}, {end}] but "
                f"contains({t}) is False: scheme arithmetic and the "
                "interval's own boundary test disagree",
            )

    # -- boundary residues: t = k*u belongs left --------------------------
    for k in K_RANGE:
        tally.tick()
        ends = by_timestamp.get(k * u)
        if ends is not None and ends != ((k - 1) * u, k * u):
            convict(
                "TEMP004", "interval_for", "boundary-off-by-one",
                f"interval_for({k}*u = {k * u}) = ({ends[0]}, {ends[1]}]; "
                f"the boundary timestamp k·u belongs to ((k-1)u, ku] = "
                f"({(k - 1) * u}, {k * u}]",
            )
            break

    # -- no interval contains 0 -------------------------------------------
    for t in (0, -u):
        tally.tick()
        try:
            leaked = scheme.interval_for(t)
        except Exception:  # repro-lint: disable=ERR001 -- the typed rejection is the spec
            continue
        convict(
            "TEMP004", "interval_for", "zero-boundary",
            f"interval_for({t}) returned {leaked!r}; no (start, end] "
            "interval contains a timestamp <= 0, so the scheme must raise",
        )
        break

    # -- disjointness and gap-freeness over the dense sweep ----------------
    produced = sorted({by_timestamp[t] for t in dense if t in by_timestamp})
    for (a_lo, a_hi), (b_lo, b_hi) in zip(produced, produced[1:]):
        tally.tick()
        if b_lo < a_hi:
            convict(
                "TEMP002", "interval_for", "disjoint",
                f"intervals ({a_lo}, {a_hi}] and ({b_lo}, {b_hi}] overlap; "
                "index intervals must partition the timeline",
            )
            break
        if b_lo > a_hi:
            convict(
                "TEMP002", "interval_for", "total-cover",
                f"gap between ({a_lo}, {a_hi}] and ({b_lo}, {b_hi}]: "
                f"timestamps in ({a_hi}, {b_lo}] have no index interval",
            )
            break

    # -- previous_interval: monotone walk to None at the start -------------
    violations.extend(
        _check_previous_walk(scheme, name, relpath, u, by_timestamp, tally)
    )

    # -- window probes ------------------------------------------------------
    if ti_cls is not None:
        violations.extend(
            _check_scheme_windows(scheme, name, ti_cls, relpath, u, tally)
        )
    return violations


def _check_previous_walk(
    scheme: Any,
    name: str,
    relpath: str,
    u: int,
    by_timestamp: Dict[int, Tuple[int, int]],
    tally: Tally,
) -> List[Violation]:
    violations: List[Violation] = []
    seed = by_timestamp.get(K_RANGE[-1] * u) or by_timestamp.get(1)
    if seed is None:
        return violations
    try:
        current = scheme.interval_for(seed[1])
    except Exception:  # repro-lint: disable=ERR001 -- already convicted above
        return violations
    for _ in range(_PREV_WALK_LIMIT):
        tally.tick()
        cur = _ends(current)
        if cur is None:
            break
        try:
            previous = scheme.previous_interval(current)
        except Exception as exc:  # repro-lint: disable=ERR001
            violations.append(Violation(
                "TEMP002", relpath, name, "previous_interval", "monotone",
                f"u={u}: previous_interval(({cur[0]}, {cur[1]}]) raised "
                f"{type(exc).__name__}: {exc}",
            ))
            return violations
        if previous is None:
            if cur[0] != 0:
                violations.append(Violation(
                    "TEMP002", relpath, name, "previous_interval", "monotone",
                    f"u={u}: previous_interval(({cur[0]}, {cur[1]}]) is None "
                    "before the walk reached the timeline start at 0 -- "
                    "M2's backward probing loop would stop early and miss "
                    "earlier base states",
                ))
            return violations
        prev = _ends(previous)
        if prev is None or prev[1] != cur[0] or prev[0] >= cur[0]:
            violations.append(Violation(
                "TEMP002", relpath, name, "previous_interval", "monotone",
                f"u={u}: previous_interval(({cur[0]}, {cur[1]}]) = {prev}; "
                f"the previous interval must end exactly at {cur[0]} and "
                "start strictly earlier",
            ))
            return violations
        current = previous
    else:
        violations.append(Violation(
            "TEMP002", relpath, name, "previous_interval", "monotone",
            f"u={u}: previous_interval walk did not terminate within "
            f"{_PREV_WALK_LIMIT} steps",
        ))
    return violations


def _check_scheme_windows(
    scheme: Any,
    name: str,
    ti_cls: type,
    relpath: str,
    u: int,
    tally: Tally,
) -> List[Violation]:
    violations: List[Violation] = []
    for ws, we in materialize_windows(u):
        try:
            window = ti_cls(ws, we)
        except Exception:  # repro-lint: disable=ERR001 -- convicted by the class checks
            continue
        # intervals_overlapping agrees with interval_for.
        lister = getattr(scheme, "intervals_overlapping", None) or (
            lambda w: list(scheme.iter_intervals_overlapping(w))
        )
        tally.tick()
        try:
            listed = [iv for iv in lister(window)]
        except Exception as exc:  # repro-lint: disable=ERR001
            violations.append(Violation(
                "TEMP002", relpath, name, "intervals_overlapping", "agreement",
                f"u={u}: intervals_overlapping(({ws}, {we}]) raised {exc!r}",
            ))
            continue
        listed_ends = [_ends(iv) for iv in listed]
        for ends in listed_ends:
            tally.tick()
            if ends is None or not (ends[0] < we and ws < ends[1]):
                violations.append(Violation(
                    "TEMP002", relpath, name, "intervals_overlapping",
                    "agreement",
                    f"u={u}: intervals_overlapping(({ws}, {we}]) listed "
                    f"{ends}, which does not overlap the window",
                ))
                break
        listed_set = set(filter(None, listed_ends))
        for t in range(ws + 1, min(we, ws + 3 * u + 2) + 1):
            tally.tick()
            try:
                home = _ends(scheme.interval_for(t))
            except Exception:  # repro-lint: disable=ERR001
                continue
            if home is not None and home not in listed_set:
                violations.append(Violation(
                    "TEMP002", relpath, name, "intervals_overlapping",
                    "agreement",
                    f"u={u}: timestamp {t} in window ({ws}, {we}] lives in "
                    f"({home[0]}, {home[1]}], which intervals_overlapping "
                    "did not list -- the query engine would never probe its "
                    "bundle and events would silently vanish",
                ))
                break
        # partition_clipped tiles the window exactly.
        tally.tick()
        try:
            pieces = [_ends(iv) for iv in scheme.partition_clipped(window)]
        except Exception as exc:  # repro-lint: disable=ERR001
            violations.append(Violation(
                "TEMP002", relpath, name, "partition_clipped", "tiling",
                f"u={u}: partition_clipped(({ws}, {we}]) raised {exc!r}",
            ))
            continue
        violations.extend(_tiling_violations(
            pieces, ws, we, relpath, name, "partition_clipped", u,
        ))
        # partition (aligned windows only).
        if ws % u == 0 and we % u == 0:
            tally.tick()
            try:
                aligned = [_ends(iv) for iv in scheme.partition(window)]
            except Exception as exc:  # repro-lint: disable=ERR001
                violations.append(Violation(
                    "TEMP002", relpath, name, "partition", "tiling",
                    f"u={u}: partition(({ws}, {we}]) raised {exc!r}",
                ))
                continue
            violations.extend(_tiling_violations(
                aligned, ws, we, relpath, name, "partition", u,
            ))
    return violations


def _tiling_violations(
    pieces: List[Optional[Tuple[int, int]]],
    ws: int,
    we: int,
    relpath: str,
    class_name: str,
    method: str,
    u: int,
) -> List[Violation]:
    """Exact-tiling assertions (TEMP002) on a scheme partition."""
    where = f"u={u}: {method}(({ws}, {we}])"
    if not pieces or any(piece is None for piece in pieces):
        return [Violation(
            "TEMP002", relpath, class_name, method, "tiling",
            f"{where} returned no usable intervals",
        )]
    clean = [piece for piece in pieces if piece is not None]
    if clean[0][0] != ws:
        return [Violation(
            "TEMP002", relpath, class_name, method, "tiling",
            f"{where} starts at {clean[0][0]}, not the window start {ws}: "
            f"events in ({ws}, {clean[0][0]}] are never indexed",
        )]
    if clean[-1][1] != we:
        return [Violation(
            "TEMP002", relpath, class_name, method, "tiling",
            f"{where} ends at {clean[-1][1]}, not the window end {we}: "
            f"events in ({clean[-1][1]}, {we}] are never indexed",
        )]
    for (a_lo, a_hi), (b_lo, b_hi) in zip(clean, clean[1:]):
        if a_hi != b_lo:
            kind = "overlap" if b_lo < a_hi else "gap"
            return [Violation(
                "TEMP002", relpath, class_name, method, "tiling",
                f"{where}: ({a_lo}, {a_hi}] then ({b_lo}, {b_hi}] -- a "
                f"{kind} at {min(a_hi, b_lo)}; intervals must be adjacent "
                "so no timestamp falls between them",
            )]
    return []


def _dedup(violations: Iterable[Violation]) -> List[Violation]:
    """First witness per (rule, file, class, method, axiom)."""
    seen: Dict[Tuple[str, str, str, str, str], Violation] = {}
    for violation in violations:
        seen.setdefault(violation.dedup_key(), violation)
    return list(seen.values())
