"""repro-lint: AST-based durability analysis.

The crash-recovery guarantees only hold if every durable write fsyncs
before it renames and closes its seam handles on every path.  No
tier-1 test kills the process right after a rename, so this package
turns those conventions into repo-native static-analysis rules that
CI enforces.  The one rule table
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
