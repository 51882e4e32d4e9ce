"""The paper's contribution: temporal query processing on the ledger.

Three interchangeable query engines answer the same temporal questions:

* :class:`~repro.temporal.tqf.TQFEngine` -- the naive baseline (Section V):
  full GHFK scans filtered client-side.
* :class:`~repro.temporal.m1.M1QueryEngine` -- Model M1 (Section VI):
  reads event bundles created by a periodic
  :class:`~repro.temporal.m1.M1Indexer`; one block per bundle.
* :class:`~repro.temporal.m2.M2QueryEngine` -- Model M2 (Section VII):
  events were ingested under interval-tagged keys, so GHFK touches only
  the blocks holding events inside the query window.

:func:`~repro.temporal.join.temporal_join` implements the paper's query Q
(shipments x containers x trucks), and
:class:`~repro.temporal.engine.TemporalQueryEngine` is the facade that
runs Q on any model and reports instrumentation.
"""

from repro.temporal.engine import JoinResult, QueryStats, TemporalQueryEngine
from repro.temporal.events import Event, LOAD, UNLOAD
from repro.temporal.explain import QueryExplainer
from repro.temporal.intervals import FixedIntervalScheme, TimeInterval
from repro.temporal.livequery import LiveJoinQuery
from repro.temporal.m1 import M1Indexer, M1QueryEngine
from repro.temporal.m2 import BaseAccessAPI, M2QueryEngine
from repro.temporal.tqf import TQFEngine

__all__ = [
    "BaseAccessAPI",
    "Event",
    "FixedIntervalScheme",
    "JoinResult",
    "LiveJoinQuery",
    "LOAD",
    "M1Indexer",
    "M1QueryEngine",
    "M2QueryEngine",
    "QueryExplainer",
    "QueryStats",
    "TemporalQueryEngine",
    "TimeInterval",
    "TQFEngine",
    "UNLOAD",
]
