"""Project-wide dataflow analysis: symbols, call resolution, taint.

PR 2's rules are per-file and syntactic; this package gives rules a
*project* view so they can reason across function and module boundaries:

* :mod:`~repro.analysis.dataflow.symbols` -- a symbol table over every
  analyzed file: modules, top-level functions, classes (with base-class
  resolution across files), methods, inferred attribute types;
* :mod:`~repro.analysis.dataflow.callgraph` -- resolution of a call site
  to the analyzed function it invokes;
* :mod:`~repro.analysis.dataflow.taint` -- a forward taint engine:
  nondeterministic sources propagate through assignments, calls, returns
  and containers to ledger writes, summarized per function and joined to
  a fixpoint so laundering a value through any helper chain is still
  visible.

Everything here is derived from the :class:`~repro.analysis.project.Project`
the runner already builds -- rules never touch the filesystem.  The
whole stack is memoized per project and built only when a rule asks for
the taint summaries (:func:`taint_for`).
"""

from __future__ import annotations

from repro.analysis.dataflow.callgraph import CallGraph
from repro.analysis.dataflow.symbols import SymbolTable
from repro.analysis.dataflow.taint import TaintAnalysis
from repro.analysis.project import Project

__all__ = ["CallGraph", "SymbolTable", "TaintAnalysis", "taint_for"]


def taint_for(project: Project) -> TaintAnalysis:
    """The memoized taint summaries for ``project``, built on first use."""
    cached = getattr(project, "_taint_analysis", None)
    if cached is None:
        graph = CallGraph(SymbolTable.build(project))
        cached = TaintAnalysis.build(graph.table, graph)
        project._taint_analysis = cached  # type: ignore[attr-defined]
    return cached
