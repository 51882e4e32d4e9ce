"""DET002: interprocedural chaincode determinism.

CHAIN001 sees one file at a time and flags nondeterministic *API use*
inside a ``Chaincode`` subclass.  What it cannot see is the dominant
real-world failure mode: the value is produced somewhere else --

* a module-level helper (``def _stamp(): return time.time()``),
* a two-hop chain (``invoke -> _make_id -> uuid.uuid4``),
* a helper that both reads a clock *and* writes state,

and only the laundered result reaches ``put_state``/``del_state``.  Two
peers executing the same transaction then endorse different write sets,
and the divergence surfaces much later as validation failures that
corrupt the history-db the temporal indexes are built from.

DET002 runs the project-wide taint engine
(:mod:`repro.analysis.dataflow.taint`): wall clocks, randomness,
``os.environ``, ``uuid1``/``uuid4`` and set-iteration order are sources;
``put_state``-family calls are sinks; values propagate through
assignments, returns, containers and any chain of analyzed calls.  Every
method of every ``Chaincode`` subclass (base classes resolved across
files) is then checked for source-to-sink flows.  The finding is
anchored at the call in the chaincode method where the tainted value is
committed (or handed to the helper that commits it) and its message
names the source, its location, and the call chain, so the report is
actionable without re-running the analysis by hand.

A flow CHAIN001 also sees (source and sink in the same chaincode class)
is still reported -- the two rules share one source set, and the two
findings describe different lines: the API use versus the write it
contaminates.  CHAIN001 additionally flags uses that never reach a
write: DET002 follows *values*, so a coin toss deciding whether a
constant is written is invisible to it.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.analysis.dataflow import taint_for
from repro.analysis.dataflow.taint import SinkHit
from repro.analysis.findings import Finding
from repro.analysis.project import Project
from repro.analysis.registry import Rule, register


def _describe(hit: SinkHit) -> str:
    source = hit.source
    parts = [f"value from {source.kind} ({source.path}) reaches {hit.sink}()"]
    if source.chain:
        parts.append(f"returned through {' -> '.join(source.chain)}")
    if hit.via:
        parts.append(f"committed inside {' -> '.join(hit.via)}")
    return "; ".join(parts)


@register
class InterproceduralDeterminismRule(Rule):
    """DET002: no nondeterministic value may reach a ledger write,
    through any call chain."""

    rule_id = "DET002"

    def check_project(self, project: Project) -> List[Finding]:
        analysis = taint_for(project)
        findings: List[Finding] = []
        for klass in analysis.table.chaincode_classes():
            for name in sorted(klass.methods):
                method = klass.methods[name]
                summary = analysis.summary(method.qualname)
                # A diamond of call paths can reach the same sink several
                # ways; keep one hit (the shortest chain) per distinct
                # (line, sink, source) so reports stay readable.
                best: Dict[Tuple[int, str, str, str, int], SinkHit] = {}
                for hit in summary.sink_hits:
                    key = (
                        hit.line,
                        hit.sink,
                        hit.source.kind,
                        hit.source.path,
                        hit.source.line,
                    )
                    current = best.get(key)
                    if current is None or len(hit.via) + len(hit.source.chain) < len(
                        current.via
                    ) + len(current.source.chain):
                        best[key] = hit
                for key in sorted(best):
                    hit = best[key]
                    findings.append(
                        Finding(
                            path=klass.source.relpath,
                            line=hit.line,
                            rule_id=self.rule_id,
                            message=(
                                f"nondeterministic {_describe(hit)} in "
                                f"chaincode {klass.name!r}: endorsements "
                                "would diverge across peers; derive the "
                                "value from transaction arguments or "
                                "stub.get_tx_timestamp()"
                            ),
                        )
                    )
        return findings
