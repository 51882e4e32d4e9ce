"""repro-lint: AST-based determinism & durability analysis.

The execute-order-validate pipeline only works if chaincode is
deterministic, and PR 1's crash-recovery guarantees only hold if every
durable write keeps going through the :class:`~repro.faults.fs.FileSystem`
seam and the fsync-before-rename convention.  Neither invariant is
visible to a conventional linter, so this package turns both into
repo-native static-analysis rules that CI enforces.  The one rule table
-- each rule, its scope and what it rejects -- is in
``docs/static-analysis.md``; ``repro lint --explain RULE`` prints a
rule's own documentation.

Entry points: the :func:`run_lint` API and the ``repro lint`` CLI
subcommand (see :mod:`repro.cli`).  Findings can be suppressed per line
with ``# repro-lint: disable=RULE -- reason``.
"""

from __future__ import annotations

from repro.analysis.findings import Finding
from repro.analysis.registry import all_rules
from repro.analysis.runner import LintResult, run_lint

__all__ = ["Finding", "LintResult", "run_lint", "all_rules"]
