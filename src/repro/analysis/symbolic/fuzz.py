"""Seeded property-based witness runner for the scheme axioms.

The symbolic verifier proves the axioms over a bounded probe grid; this
module attacks the same axioms from the opposite side, in the style of
the PR 7 dynamic cross-check: fuzz random ``(u, window, timestamp)``
tuples (seeded, ``REPRO_SEED``-honoring) against the project's interval
and scheme classes and record every concrete counterexample as a
witness.  :func:`bridge` then joins the two views per
``(rule, file, class, method)`` site:

* **CONFIRMED** -- a static finding whose site also produced a concrete
  fuzz witness: the symbolic conviction has a runtime counterexample.
* **UNWITNESSED** -- a static finding the fuzzer never hit: either the
  probe grid sees a residue class random sampling is unlikely to land
  on (e.g. exact ``k*u`` boundaries), or a conservative conviction.
* **STATICALLY-INVISIBLE** -- a fuzz witness at a site with no static
  finding: the most valuable kind, it names an axiom the bounded grid
  missed and feeds the next probe-term iteration.

Unlike the static rules (whose probe grid is fixed, so lint output is
machine-independent), the fuzzer draws its seed from ``REPRO_SEED`` so
CI can sweep seeds over time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.project import Project
from repro.analysis.symbolic.axioms import _ends
from repro.analysis.symbolic.loader import load_temporal
from repro.analysis.symbolic.verifier import SchemeVerification, verify_project
from repro.common.config import repro_seed

#: Default number of random (u, window, timestamp) rounds per class.
DEFAULT_ROUNDS = 40

_SiteKey = Tuple[str, str, str, str]


@dataclass(frozen=True)
class FuzzWitness:
    """One concrete counterexample found by random probing."""

    rule: str
    path: str
    class_name: str
    method: str
    detail: str

    def site(self) -> _SiteKey:
        """The (rule, file, class, method) join key for the bridge."""
        return (self.rule, self.path, self.class_name, self.method)

    def to_json(self) -> Dict[str, str]:
        """JSON-ready form for the scheme-report artifact."""
        return {
            "rule": self.rule,
            "path": self.path,
            "class": self.class_name,
            "method": self.method,
            "detail": self.detail,
        }


@dataclass
class SchemeFuzzReport:
    """Everything one fuzzing session established."""

    seed: int
    rounds: int
    checks: int = 0
    witnesses: List[FuzzWitness] = field(default_factory=list)

    def sites(self) -> Dict[_SiteKey, FuzzWitness]:
        """First witness per site (the join key for the bridge)."""
        first: Dict[_SiteKey, FuzzWitness] = {}
        for witness in self.witnesses:
            first.setdefault(witness.site(), witness)
        return first


@dataclass
class SchemeBridge:
    """The joined static/fuzz verdicts (PR 7 bridge style)."""

    verification: SchemeVerification
    fuzz: SchemeFuzzReport
    confirmed: List[Tuple[_SiteKey, FuzzWitness]] = field(default_factory=list)
    unwitnessed: List[_SiteKey] = field(default_factory=list)
    invisible: List[FuzzWitness] = field(default_factory=list)

    def render_text(self) -> str:
        """Human-readable verdicts, one line per site."""
        lines = [
            f"scheme-bridge: {len(self.verification.violations)} static "
            f"finding(s) vs {len(self.fuzz.witnesses)} fuzz witness(es) "
            f"(seed={self.fuzz.seed}, rounds={self.fuzz.rounds})"
        ]
        for site, witness in self.confirmed:
            lines.append(
                f"CONFIRMED {site[0]} at {site[1]} "
                f"({site[2]}.{site[3]}): {witness.detail}"
            )
        for witness in self.invisible:
            lines.append(
                f"STATICALLY-INVISIBLE {witness.rule} at {witness.path} "
                f"({witness.class_name}.{witness.method}): {witness.detail}"
            )
        for site in self.unwitnessed:
            lines.append(
                f"UNWITNESSED {site[0]} at {site[1]} ({site[2]}.{site[3]})"
            )
        lines.append(
            f"verdict: {len(self.confirmed)} confirmed, "
            f"{len(self.invisible)} statically invisible, "
            f"{len(self.unwitnessed)} unwitnessed"
        )
        return "\n".join(lines)


def fuzz_project(
    project: Project,
    rounds: int = DEFAULT_ROUNDS,
    seed: Optional[int] = None,
) -> SchemeFuzzReport:
    """Random witness hunt over every scheme file in ``project``."""
    resolved_seed = repro_seed(0) if seed is None else seed
    report = SchemeFuzzReport(seed=resolved_seed, rounds=rounds)
    rng = random.Random(resolved_seed)
    for loaded in load_temporal(project):
        ti_cls = loaded.interval_class()
        relpath = loaded.intervals_file.relpath
        if ti_cls is not None:
            _fuzz_interval_class(ti_cls, relpath, rng, rounds, report)
        for cls in loaded.scheme_classes():
            _fuzz_scheme(cls, ti_cls, relpath, rng, rounds, report)
    return report


def _fuzz_interval_class(
    ti_cls: type,
    relpath: str,
    rng: random.Random,
    rounds: int,
    report: SchemeFuzzReport,
) -> None:
    """Random half-open probes on the interval value class itself, at
    the same (class, method) sites the static TEMP004 checks use so the
    bridge can join the verdicts."""
    name = ti_cls.__name__
    for _ in range(rounds):
        lo = rng.randint(0, 50)
        hi = lo + rng.randint(1, 50)
        try:
            interval = ti_cls(lo, hi)
        except Exception:  # repro-lint: disable=ERR001 -- verdict, not flow
            continue
        for t, expected in ((lo, False), (lo + 1, True), (hi, True), (hi + 1, False)):
            report.checks += 1
            if bool(interval.contains(t)) != expected:
                report.witnesses.append(FuzzWitness(
                    "TEMP004", relpath, name, "contains",
                    f"({lo}, {hi}].contains({t}) is {not expected}, the "
                    f"(start, end] convention requires {expected}",
                ))
                break
        other_lo = rng.randint(0, 50)
        other_hi = other_lo + rng.randint(1, 50)
        try:
            other = ti_cls(other_lo, other_hi)
        except Exception:  # repro-lint: disable=ERR001 -- verdict, not flow
            continue
        report.checks += 1
        expected_overlap = lo < other_hi and other_lo < hi
        if bool(interval.overlaps(other)) != expected_overlap:
            report.witnesses.append(FuzzWitness(
                "TEMP004", relpath, name, "overlaps",
                f"({lo}, {hi}].overlaps(({other_lo}, {other_hi}]) "
                f"disagrees with endpoint arithmetic ({expected_overlap})",
            ))


def _random_scheme(cls: type, u: int) -> Optional[Any]:
    try:
        return cls(u=u)
    except Exception:  # repro-lint: disable=ERR001 -- constructor shapes vary
        try:
            return cls(u)
        except Exception:  # repro-lint: disable=ERR001
            return None


def _fuzz_scheme(
    cls: type,
    ti_cls: Optional[type],
    relpath: str,
    rng: random.Random,
    rounds: int,
    report: SchemeFuzzReport,
) -> None:
    name = cls.__name__
    for _ in range(rounds):
        u = rng.randint(1, 64)
        scheme = _random_scheme(cls, u)
        if scheme is None:
            return
        t = rng.randint(1, 40 * u)
        report.checks += 1
        try:
            interval = scheme.interval_for(t)
            ends = _ends(interval)
        except Exception as exc:  # repro-lint: disable=ERR001
            report.witnesses.append(FuzzWitness(
                "TEMP002", relpath, name, "interval_for",
                f"u={u}: interval_for({t}) raised {exc!r}",
            ))
            continue
        if ends is None or not (ends[0] < t <= ends[1]):
            report.witnesses.append(FuzzWitness(
                "TEMP002", relpath, name, "interval_for",
                f"u={u}: interval_for({t}) = {ends} does not cover {t}",
            ))
            continue
        report.checks += 1
        if not interval.contains(t):
            report.witnesses.append(FuzzWitness(
                "TEMP004", relpath, name, "interval_for",
                f"u={u}: interval_for({t}) arithmetic covers {t} but "
                "contains() denies it",
            ))
        if ti_cls is None:
            continue
        lo = rng.randint(0, 20 * u)
        hi = lo + rng.randint(1, 20 * u)
        try:
            window = ti_cls(lo, hi)
        except Exception:  # repro-lint: disable=ERR001
            continue
        report.checks += 1
        try:
            pieces = [_ends(iv) for iv in scheme.partition_clipped(window)]
        except Exception as exc:  # repro-lint: disable=ERR001
            report.witnesses.append(FuzzWitness(
                "TEMP002", relpath, name, "partition_clipped",
                f"u={u}: partition_clipped(({lo}, {hi}]) raised {exc!r}",
            ))
            continue
        flaw = _tiling_flaw(pieces, lo, hi)
        if flaw is not None:
            report.witnesses.append(FuzzWitness(
                "TEMP002", relpath, name, "partition_clipped",
                f"u={u}: partition_clipped(({lo}, {hi}]): {flaw}",
            ))


def _tiling_flaw(
    pieces: List[Optional[Tuple[int, int]]], lo: int, hi: int
) -> Optional[str]:
    """One-line description of a tiling defect, or None when exact."""
    if not pieces or any(piece is None for piece in pieces):
        return "no usable intervals"
    clean = [piece for piece in pieces if piece is not None]
    if clean[0][0] != lo:
        return f"starts at {clean[0][0]}, window starts at {lo}"
    if clean[-1][1] != hi:
        return f"ends at {clean[-1][1]}, window ends at {hi}"
    for (a_lo, a_hi), (b_lo, b_hi) in zip(clean, clean[1:]):
        if a_hi != b_lo:
            return f"({a_lo}, {a_hi}] then ({b_lo}, {b_hi}]"
    return None


def bridge(
    project: Project,
    rounds: int = DEFAULT_ROUNDS,
    seed: Optional[int] = None,
) -> SchemeBridge:
    """Join the symbolic verdicts with a fresh fuzzing session."""
    verification = verify_project(project)
    fuzz = fuzz_project(project, rounds=rounds, seed=seed)
    result = SchemeBridge(verification=verification, fuzz=fuzz)
    fuzz_sites = fuzz.sites()
    static_sites = {
        (v.rule, v.relpath, v.class_name, v.method)
        for v in verification.violations
    }
    matched: set = set()
    for site in sorted(static_sites):
        witness = fuzz_sites.get(site)
        if witness is not None:
            result.confirmed.append((site, witness))
            matched.add(site)
        else:
            result.unwitnessed.append(site)
    result.invisible = [
        witness
        for site, witness in sorted(fuzz_sites.items())
        if site not in static_sites
    ]
    return result
