"""TEMP001: the Model M1 ingest contract, statically enforced.

Section VI's indexing process ingests one bundle ``⟨(k, θ), EV(k, θ)⟩``
as a ``write_index`` transaction and then *must* delete the pair from
state-db with a ``clear_index`` transaction -- the tombstone is what
moves the bundle out of the hot state database and into history-db,
where GHFK retrieves it with a single block read.  A code path that
writes a bundle but can skip the tombstone silently regrows state-db
and changes every Table III number, and nothing at runtime notices.

The rule enforces two invariants over ``repro/temporal/``:

* **Tombstone post-dominance.**  Every call that submits a
  ``"write_index"`` transaction (in ``m1.py`` / ``chaincodes.py`` and
  their fixtures) must be followed by a ``"clear_index"`` submission on
  *every* path: some node of the real post-dominator tree (built on the
  per-function CFG from :mod:`repro.analysis.cfg`) after the write must
  contain the clear.  A plain statement or an ``if`` header qualifies --
  the latter accepts the manifest-resume idiom, where the clear sits
  behind its own ``if not have_clear:`` recovery check that every path
  runs through.  Loop headers deliberately do *not* qualify: a loop
  header post-dominates its whole body, so accepting it would bless a
  clear hidden in a sibling arm the write's path never takes.  Compared
  to the PR-3 sibling-statement walk this catches the extra case of a
  conditional early ``return`` slipped between write and clear (the
  clear no longer post-dominates), while accepting exactly the same
  legitimate ingest shapes.

* **Interval arithmetic goes through the scheme.**  M1 and M2 agree on
  ``θ`` boundaries only because both sides compute them with
  :class:`~repro.temporal.intervals.FixedIntervalScheme`.  Hand-rolled
  ``//``/``%`` math on the index length ``u`` outside ``intervals.py``
  is exactly how an off-by-one on the half-open ``(start, end]``
  convention sneaks in and makes the indexer and the query engine
  disagree about which bundle covers a timestamp.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Set, Tuple

from repro.analysis.cfg import CFG, build_cfg, postdominators
from repro.analysis.cfg.builder import CFGNode
from repro.analysis.findings import Finding
from repro.analysis.project import Project, SourceFile
from repro.analysis.registry import Rule, register

_WRITE_MARKER = "write_index"
_CLEAR_MARKER = "clear_index"

#: Files allowed to do raw interval math: they *define* the scheme.
_SCHEME_FILES = ("intervals.py",)

#: Files whose ingest sequences are checked for the tombstone.
_INGEST_FILES = ("m1.py", "chaincodes.py")


def _call_submits(node: ast.Call, marker: str) -> bool:
    """Whether a call carries the string literal ``marker`` as an
    argument -- how both the indexer (``submit_transaction(...,
    "write_index", ...)``) and any future client code name the
    transaction function."""
    for arg in node.args:
        if isinstance(arg, ast.Constant) and arg.value == marker:
            return True
    for keyword in node.keywords:
        value = keyword.value
        if isinstance(value, ast.Constant) and value.value == marker:
            return True
    return False


def _tombstone_postdominates(
    cfg: CFG,
    pdom: Dict[int, Set[int]],
    write_node: CFGNode,
    write_pos: Tuple[int, int],
) -> bool:
    """Real post-dominance: some CFG node on *every* path from the write
    to the exit contains a ``clear_index`` submission textually after
    the write.  Accepting nodes are plain statements and ``if`` headers
    (the resume idiom's guarded clear); loop headers are excluded --
    they post-dominate their entire body, so a clear in a sibling arm
    would be blessed even though the write's path skips it."""
    for index in pdom[write_node.index]:
        candidate = cfg.nodes[index]
        if candidate.kind == "stmt":
            stmt = candidate.stmt
        elif candidate.kind == "test" and isinstance(candidate.stmt, ast.If):
            stmt = candidate.stmt
        else:
            continue
        assert stmt is not None
        for child in ast.walk(stmt):
            if (
                isinstance(child, ast.Call)
                and _call_submits(child, _CLEAR_MARKER)
                and (child.lineno, child.col_offset) > write_pos
            ):
                return True
    return False


def _references_u(node: ast.expr) -> bool:
    """Whether an operand names the index length ``u`` (``u``, ``run.u``,
    ``self._u``...)."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and (child.id == "u" or child.id.endswith("_u")):
            return True
        if isinstance(child, ast.Attribute) and (
            child.attr == "u" or child.attr.endswith("_u")
        ):
            return True
    return False


@register
class M1ModelInvariantRule(Rule):
    """TEMP001: bundle writes need their tombstone; θ math goes through
    the interval scheme."""

    rule_id = "TEMP001"

    def applies_to(self, relpath: str) -> bool:
        return "temporal/" in relpath

    def check_file(self, source: SourceFile, project: Project) -> List[Finding]:
        if source.tree is None:
            return []
        findings: List[Finding] = []
        basename = source.relpath.rsplit("/", 1)[-1]
        if basename in _INGEST_FILES:
            findings.extend(self._check_ingests(source))
        if basename not in _SCHEME_FILES:
            findings.extend(self._check_interval_math(source))
        return findings

    def _check_ingests(self, source: SourceFile) -> List[Finding]:
        findings: List[Finding] = []
        for func in ast.walk(source.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            writes = [
                node
                for node in ast.walk(func)
                if isinstance(node, ast.Call)
                and _call_submits(node, _WRITE_MARKER)
            ]
            if not writes:
                continue
            cfg = build_cfg(func)
            pdom = postdominators(cfg)
            for node in writes:
                write_node = cfg.node_containing(node)
                if write_node is None:
                    # Inside a nested def: the walk visits that function
                    # separately, with its own CFG.
                    continue
                if not _tombstone_postdominates(
                    cfg, pdom, write_node, (node.lineno, node.col_offset)
                ):
                    findings.append(
                        Finding(
                            path=source.relpath,
                            line=node.lineno,
                            rule_id=self.rule_id,
                            message=(
                                "M1 bundle write is not followed by its "
                                "clear_index tombstone on this path; the "
                                "pair ⟨(k, θ), EV(k, θ)⟩ would stay in "
                                "state-db and Section VI's storage contract "
                                "breaks -- submit clear_index after every "
                                "write_index"
                            ),
                        )
                    )
        return findings

    def _check_interval_math(self, source: SourceFile) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(source.tree):
            if not (
                isinstance(node, ast.BinOp)
                and isinstance(node.op, (ast.FloorDiv, ast.Mod))
            ):
                continue
            if _references_u(node.left) or _references_u(node.right):
                operator = "//" if isinstance(node.op, ast.FloorDiv) else "%"
                findings.append(
                    Finding(
                        path=source.relpath,
                        line=node.lineno,
                        rule_id=self.rule_id,
                        message=(
                            f"hand-rolled `{operator}` arithmetic on the "
                            "index length u; compute θ boundaries through "
                            "FixedIntervalScheme so the "
                            "indexer and query engine can never disagree "
                            "about the (start, end] convention"
                        ),
                    )
                )
        return findings
