"""Race reports: the sanitizer's machine-readable output.

A :class:`RaceReport` pairs two :class:`AccessWitness`\\ es -- the two
accesses the happens-before engine found concurrent with disjoint
locksets -- each carrying thread, operation, ``file:line`` site and
held-lock names; the *second* (detecting) access additionally carries
its full call stack.  A :class:`SanitizerReport` is the whole-run
document ``repro san`` and the ``REPRO_SAN=1`` test leg write as
``race-report.json``, so a failing run's witnesses outlive the process
(CI uploads the file either way).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Tuple


@dataclass(frozen=True)
class AccessWitness:
    """One side of a race: who touched what, where, holding which locks."""

    thread: str
    #: ``attr-read`` / ``attr-write`` or a container op like ``dict.setitem``.
    op: str
    path: str
    line: int
    function: str
    locks: Tuple[str, ...]
    #: Rendered ``file:line in function`` frames; only the detecting
    #: access captures a full stack (the earlier access recorded just
    #: its site when it happened).
    stack: Tuple[str, ...] = ()

    def site(self) -> str:
        """``file:line in function`` -- the witness's anchor."""
        return f"{self.path}:{self.line} in {self.function}"

    def render(self) -> str:
        """One human-readable line for this side of the race."""
        held = ", ".join(self.locks) if self.locks else "no locks"
        return f"{self.op} by {self.thread} at {self.site()} holding [{held}]"


@dataclass(frozen=True)
class RaceReport:
    """Two concurrent, lockset-disjoint accesses to one shared cell."""

    #: ``write-write`` / ``read-write`` / ``write-read`` (second op view).
    kind: str
    #: Class name of the shared object (``sanitize_shared`` target).
    cls: str
    attr: str
    first: AccessWitness
    second: AccessWitness

    def cell(self) -> str:
        """The shared cell, as ``Class.attr``."""
        return f"{self.cls}.{self.attr}"

    def render(self) -> str:
        """Multi-line human-readable report (both witnesses + stack)."""
        lines = [
            f"RACE ({self.kind}) on {self.cell()}:",
            f"  earlier: {self.first.render()}",
            f"  racing:  {self.second.render()}",
        ]
        for frame in self.second.stack:
            lines.append(f"    {frame}")
        return "\n".join(lines)

    def to_json(self) -> Dict[str, Any]:
        """A JSON-ready dict."""
        return asdict(self)


@dataclass
class SanitizerReport:
    """One sanitizer run, as written to ``race-report.json``.

    ``seed`` and ``fuzz_rounds`` make a failure replayable (the
    ``REPRO_SEED`` contract); ``lock_order_cycles`` is the dynamic
    acquisition-order graph's verdict -- the repository's one
    lock-order check, built from the acquisitions that really happened.
    """

    FORMAT_VERSION = 1

    seed: int = 0
    workers: int = 1
    fuzz_rounds: int = 0
    #: What produced the events: scenario names, or e.g. ``pytest``.
    source: str = "scenarios"
    scenarios: List[str] = field(default_factory=list)
    races: List[RaceReport] = field(default_factory=list)
    #: Each cycle: the lock names around the loop plus one witness per hop.
    lock_order_cycles: List[Dict[str, Any]] = field(default_factory=list)
    events_traced: int = 0
    duration_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.races and not self.lock_order_cycles

    def render(self) -> str:
        """The whole run as human-readable text (races + cycles)."""
        lines = [
            f"repro-san: {len(self.races)} race(s), "
            f"{len(self.lock_order_cycles)} lock-order cycle(s) "
            f"({self.events_traced} events traced, seed={self.seed}, "
            f"workers={self.workers}, fuzz_rounds={self.fuzz_rounds})"
        ]
        for race in self.races:
            lines.append(race.render())
        for cycle in self.lock_order_cycles:
            lines.append(
                "LOCK-ORDER CYCLE: " + " -> ".join(cycle.get("locks", []))
            )
            for hop in cycle.get("witnesses", []):
                lines.append(f"  {hop}")
        return "\n".join(lines)

    def to_json(self) -> Dict[str, Any]:
        """The ``race-report.json`` document as a dict."""
        return {
            "version": self.FORMAT_VERSION,
            "ok": self.ok,
            "seed": self.seed,
            "workers": self.workers,
            "fuzz_rounds": self.fuzz_rounds,
            "source": self.source,
            "scenarios": list(self.scenarios),
            "races": [race.to_json() for race in self.races],
            "lock_order_cycles": list(self.lock_order_cycles),
            "events_traced": self.events_traced,
            "duration_seconds": round(self.duration_seconds, 6),
        }

    def save(self, path: str | Path) -> None:
        """Write the report to ``path`` as indented JSON."""
        Path(path).write_text(
            json.dumps(self.to_json(), indent=2) + "\n", encoding="utf-8"
        )
