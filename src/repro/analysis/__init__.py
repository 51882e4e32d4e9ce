"""repro-lint: AST-based determinism & durability analysis.

The execute-order-validate pipeline only works if chaincode is
deterministic, and PR 1's crash-recovery guarantees only hold if every
durable write keeps going through the :class:`~repro.faults.fs.FileSystem`
seam and the fsync-before-rename convention.  Neither invariant is
visible to a conventional linter, so this package turns both into
repo-native static-analysis rules that CI enforces:

========  ==============================================================
Rule      What it catches
========  ==============================================================
CHAIN001  nondeterminism inside ``Chaincode`` subclasses: wall clocks,
          randomness, environment reads, uuid1/uuid4, raw file I/O, and
          iteration over unordered sets flowing into ``put_state``
DUR001    durable-write-path code bypassing the ``FileSystem`` seam
          (raw ``open(..., "w")``, ``os.replace``, ``os.rename``,
          ``Path.write_text`` / ``write_bytes``)
DUR002    rename-finalization (``fs.replace``) with no flush+fsync of
          the temp file beforehand in the same function
CRASH001  crash-point registry drift: registered-but-never-fired points,
          fired-but-unregistered points, and points missing from the
          swept tuples / kill-point sweep tests
ERR001    swallowed exceptions: bare ``except:`` or broad
          ``except Exception`` that does not re-raise unchanged
DET002    interprocedural determinism: a nondeterministic value reaching
          ``put_state``/``del_state`` through *any* chain of helper
          calls, tracked by the project-wide taint engine
          (:mod:`repro.analysis.dataflow`); same source set as
          CHAIN001, which additionally flags uses that never reach a
          write
TEMP001   Model M1 ingest contract: every ``"write_index"`` submission
          followed by its ``"clear_index"`` tombstone, and θ-boundary
          arithmetic confined to the interval scheme
CONC001   unlocked ``self.attr`` writes in classes that carry a
          ``threading`` lock (``_locked``-suffix methods exempt)
RES001    ``fs.open`` handles not scoped by ``with``, closed in a
          ``finally``, or owned by ``self``
========  ==============================================================

Entry points: the :func:`run_lint` API and the ``repro lint`` CLI
subcommand (see :mod:`repro.cli`).  Findings can be suppressed per line
with ``# repro-lint: disable=RULE -- reason``.
"""

from __future__ import annotations

from repro.analysis.findings import Finding
from repro.analysis.registry import all_rules
from repro.analysis.runner import LintResult, run_lint

__all__ = ["Finding", "LintResult", "run_lint", "all_rules"]
