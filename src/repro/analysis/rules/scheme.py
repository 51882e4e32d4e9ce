"""TEMP002/TEMP004: the symbolic temporal-scheme verifier.

Where TEMP001 polices *how* temporal code is written (tombstones,
arithmetic through the scheme), these two families prove *what it
computes*: the :mod:`repro.analysis.symbolic` engine executes the
analyzed project's own ``temporal/intervals.py`` against symbolic
boundary terms materialized over a ``u``-grid and convicts any scheme
that violates the paper's interval axioms.

* **TEMP002** -- scheme-axiom violation: ``interval_for`` fails to
  cover a positive timestamp, produces overlapping or misaligned
  intervals, ``previous_interval`` breaks the monotone walk to the
  timeline start, ``intervals_overlapping`` disagrees with
  ``interval_for``, or ``partition``/``partition_clipped`` do not tile
  their window.

* **TEMP004** -- boundary convention: the half-open ``(lo, hi]``
  contract -- ``contains`` off-by-one at either endpoint,
  ``overlaps``/``intersection`` disagreeing with endpoint arithmetic,
  an interval that contains ``0``, ``t = k*u`` landing in the wrong
  bucket, or ``interval_for`` arithmetic contradicting
  ``TimeInterval.contains``.

Both rules share one memoized verification pass per project, so
selecting the whole TEMP family costs a single probe-grid run.
"""

from __future__ import annotations

from typing import List

from repro.analysis.findings import Finding
from repro.analysis.project import Project
from repro.analysis.registry import Rule, register
from repro.analysis.symbolic.verifier import verify_project


class _SchemeRule(Rule):
    """Shared shape: surface the memoized verifier's findings."""

    def check_project(self, project: Project) -> List[Finding]:
        return verify_project(project).findings_for(self.rule_id)


@register
class SchemeAxiomRule(_SchemeRule):
    """TEMP002: an interval scheme violates the timeline axioms.

    The symbolic verifier drove the scheme through boundary and window
    probes over the ``u``-grid and found a timestamp with no index
    interval, overlapping or gapped intervals, a non-monotone
    ``previous_interval`` walk, an ``intervals_overlapping`` listing
    that disagrees with ``interval_for``, or a ``partition`` /
    ``partition_clipped`` that does not tile its window.  Any of these
    makes M1/M2 disagree with TQF on some query.
    """

    rule_id = "TEMP002"


@register
class BoundaryConventionRule(_SchemeRule):
    """TEMP004: the half-open ``(lo, hi]`` boundary convention is broken.

    ``TimeInterval.contains`` includes its start or excludes its end,
    ``overlaps``/``intersection`` disagree with endpoint arithmetic, an
    interval claims the unindexable timestamp ``0``, the boundary
    timestamp ``t = k*u`` lands in the wrong bucket, or the scheme's
    arithmetic and the interval's own ``contains`` disagree about the
    same timestamp.  Off-by-ones here are precisely the bugs that make
    the indexer and the query engine read different bundles.
    """

    rule_id = "TEMP004"
