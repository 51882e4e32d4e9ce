"""Control-flow analysis: CFGs and the lockset engine.

Where :mod:`~repro.analysis.dataflow` answers "what value can reach
here?", this package answers "what *order* do things happen in?":

* :mod:`~repro.analysis.cfg.builder` -- per-function CFG construction
  from the AST (branches, loops, try/except/finally, ``with``), with
  documented over-approximations whose polarity every rule relies on;
* :mod:`~repro.analysis.cfg.lockset` -- which locks are held at each
  node, and which blocking operations each function reaches through
  the call graph: the facts CONC003 reads.

Like the dataflow layer, the whole analysis is memoized per project
(:func:`lockset_for`).
"""

from __future__ import annotations

from repro.analysis.cfg.builder import CFG, CFGNode, build_cfg
from repro.analysis.cfg.lockset import (
    BlockingOp,
    FunctionLocks,
    LockRef,
    LocksetAnalysis,
)
from repro.analysis.dataflow import call_graph_for
from repro.analysis.project import Project

__all__ = [
    "CFG",
    "CFGNode",
    "BlockingOp",
    "FunctionLocks",
    "LockRef",
    "LocksetAnalysis",
    "build_cfg",
    "lockset_for",
]


def lockset_for(project: Project) -> LocksetAnalysis:
    """The memoized :class:`LocksetAnalysis` for ``project``; reuses the
    symbol table and call resolver the dataflow layer already built."""
    cached = getattr(project, "_lockset_analysis", None)
    if cached is None:
        graph = call_graph_for(project)
        cached = LocksetAnalysis.build(graph.table, graph)
        project._lockset_analysis = cached  # type: ignore[attr-defined]
    return cached
