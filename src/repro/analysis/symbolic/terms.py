"""Linear terms over the symbolic interval length ``u``.

The verifier reasons about timestamps and window endpoints as linear
terms ``a·u + b`` with integer coefficients.  A term is *one* value per
concrete ``u`` but *one residue class* symbolically: ``2u + 1`` names
"one past the second boundary" for every ``u`` at once, which is exactly
the vocabulary the paper's ``(k·u, (k+1)·u]`` convention is written in.

Two layers live here:

* the :class:`Lin` algebra -- add/subtract/scale, comparison decidable
  for all ``u >= u_min`` by looking at the leading coefficient (the
  algebraic-simplification half of the engine), and exact floor
  division by ``u`` when the residue is known;
* the probe generators -- the bounded exhaustive enumeration half.
  :func:`boundary_terms` enumerates the residue classes around every
  multiple of ``u`` (``k·u - 1``, ``k·u``, ``k·u + 1`` for small ``k``)
  plus interior points, and :func:`window_terms` builds query windows
  whose endpoints hit every alignment case (aligned/unaligned start and
  end, sub-``u`` windows, single-point windows).  Materializing those
  terms over the :data:`U_GRID` gives a finite check that is exhaustive
  over the residue behaviours the scheme arithmetic can distinguish.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

#: Concrete interval lengths the symbolic terms are materialized over.
#: The set deliberately mixes ``u = 1`` (every timestamp is a boundary),
#: small primes (no accidental divisibility), powers of two, and a
#: composite.
U_GRID: Tuple[int, ...] = (1, 2, 3, 5, 8)

#: Boundary multiples probed around: ``k·u`` for these ``k``.
K_RANGE: Tuple[int, ...] = (1, 2, 3, 7)


@dataclass(frozen=True, order=True)
class Lin:
    """The linear term ``a·u + b``."""

    a: int
    b: int

    def __add__(self, other: "Lin | int") -> "Lin":
        if isinstance(other, int):
            return Lin(self.a, self.b + other)
        return Lin(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "Lin | int") -> "Lin":
        if isinstance(other, int):
            return Lin(self.a, self.b - other)
        return Lin(self.a - other.a, self.b - other.b)

    def scale(self, factor: int) -> "Lin":
        """The term multiplied through by ``factor``."""
        return Lin(self.a * factor, self.b * factor)

    def at(self, u: int) -> int:
        """The concrete value at one ``u``."""
        return self.a * u + self.b

    def always_positive(self, u_min: int = 1) -> bool:
        """``a·u + b > 0`` for every ``u >= u_min``.

        Linear in ``u``, so it suffices to check the value at ``u_min``
        when the slope is non-negative; a negative slope is eventually
        negative, hence never *always* positive.
        """
        return self.a >= 0 and self.at(u_min) > 0

    def always_le(self, other: "Lin", u_min: int = 1) -> bool:
        """``self <= other`` for every ``u >= u_min``."""
        diff = other - self
        return diff.a >= 0 and diff.at(u_min) >= 0

    def floordiv_u(self, u_min: int = 1) -> Tuple[int, int] | None:
        """``(q, r)`` with ``a·u + b = q·u + r`` and ``0 <= r < u`` for
        every ``u >= u_min`` -- or ``None`` when the residue depends on
        ``u`` (e.g. ``b >= u_min`` could wrap into the next bucket).

        This is the simplification step that turns ``3u + 1`` into
        "bucket 3, offset 1" without ever fixing ``u``.
        """
        if 0 <= self.b < u_min:
            return (self.a, self.b)
        return None

    def __str__(self) -> str:
        if self.a == 0:
            return str(self.b)
        head = "u" if self.a == 1 else f"{self.a}u"
        if self.b == 0:
            return head
        sign = "+" if self.b > 0 else "-"
        return f"{head}{sign}{abs(self.b)}"


def boundary_terms() -> List[Lin]:
    """Timestamp probes covering every residue class the ``(k·u, (k+1)·u]``
    arithmetic can distinguish: exact multiples, one before, one after,
    the first legal timestamp, and interior offsets."""
    terms: List[Lin] = [Lin(0, 1), Lin(0, 2)]
    for k in K_RANGE:
        terms.append(Lin(k, -1))  # k·u - 1: last point of the previous case
        terms.append(Lin(k, 0))  # k·u: the boundary itself, belongs left
        terms.append(Lin(k, 1))  # k·u + 1: first point of the next interval
        terms.append(Lin(k, 2))  # interior
    return terms


def window_terms() -> List[Tuple[Lin, Lin]]:
    """Query-window probes ``(start, end)`` hitting every alignment case:
    aligned/unaligned on either side, spanning several intervals,
    sub-interval, and single-point windows."""
    return [
        (Lin(0, 0), Lin(1, 0)),  # (0, u]: the first index interval
        (Lin(0, 0), Lin(3, 0)),  # aligned multi-interval
        (Lin(1, 0), Lin(3, 0)),  # aligned, not from zero
        (Lin(0, 1), Lin(2, 0)),  # unaligned start, aligned end
        (Lin(1, 0), Lin(2, 1)),  # aligned start, unaligned end
        (Lin(1, 1), Lin(3, -1)),  # unaligned both sides (degenerate at u=1)
        (Lin(2, -1), Lin(2, 1)),  # straddles one boundary only
        (Lin(0, 1), Lin(0, 2)),  # sub-u window
        (Lin(3, 0), Lin(3, 1)),  # single-point window at a boundary + 1
        (Lin(0, 0), Lin(7, 3)),  # long window, unaligned tail
    ]


def materialize_timestamps(u: int) -> List[int]:
    """Concrete, positive, deduplicated timestamp probes for one ``u``."""
    seen = sorted({term.at(u) for term in boundary_terms() if term.at(u) > 0})
    return seen


def materialize_windows(u: int) -> List[Tuple[int, int]]:
    """Concrete non-empty ``(start, end)`` window probes for one ``u``."""
    out: List[Tuple[int, int]] = []
    seen = set()
    for start_term, end_term in window_terms():
        start, end = start_term.at(u), end_term.at(u)
        if start < 0 or end <= start:
            continue  # the case degenerates at this u (e.g. u-1 == 0)
        if (start, end) not in seen:
            seen.add((start, end))
            out.append((start, end))
    return out


def iter_probe_grid() -> Iterator[Tuple[int, List[int], List[Tuple[int, int]]]]:
    """``(u, timestamps, windows)`` for every grid point."""
    for u in U_GRID:
        yield u, materialize_timestamps(u), materialize_windows(u)
