"""The rule registry: how rule families plug into the analyzer.

A rule is a class with a ``rule_id``, a docstring (shown by
``repro lint --explain``) and one hook, :meth:`Rule.check_file`, called
once per analyzed file whose path the rule claims via
:meth:`Rule.applies_to`; it sees a single
:class:`~repro.analysis.project.SourceFile`.

Registering is one decorator::

    @register
    class MyRule(Rule):
        rule_id = "XYZ001"
        ...

Rules must be side-effect free and must anchor every finding to a real
line so per-line suppressions work.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Type

from repro.analysis.findings import Finding
from repro.analysis.project import Project, SourceFile

_REGISTRY: Dict[str, Type["Rule"]] = {}


class Rule:
    """Base class for one rule family (one rule id)."""

    rule_id: str = ""

    def applies_to(self, relpath: str) -> bool:
        """Whether :meth:`check_file` should run on this file at all."""
        return True

    def check_file(self, source: SourceFile, project: Project) -> List[Finding]:
        """Per-file findings (default: none)."""
        return []


def register(rule_class: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not rule_class.rule_id:
        raise ValueError(f"{rule_class.__name__} has no rule_id")
    if rule_class.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule_class.rule_id!r}")
    _REGISTRY[rule_class.rule_id] = rule_class
    return rule_class


def all_rules() -> Dict[str, Type[Rule]]:
    """Every registered rule, importing the built-in rule modules once."""
    import repro.analysis.rules  # noqa: F401  (registration side effect)

    return dict(_REGISTRY)


def instantiate(selected: Iterable[str] = ()) -> List[Rule]:
    """Rule instances for a run.

    Each entry of ``selected`` is a rule id *or prefix*: ``DUR`` selects
    every ``DUR*`` rule, ``DUR002`` exactly one.  Matching is
    case-insensitive; an entry matching nothing raises ``KeyError`` (the
    CLI turns that into a usage error, exit code 2).  A selection made
    entirely of blank entries (``--select ""``, ``--select ,``) is a
    usage error too -- it used to silently run *every* rule, so a typo'd
    CI gate would pass vacuously.
    """
    rules = all_rules()
    entries = list(selected)
    patterns = [entry.strip() for entry in entries if entry.strip()]
    if not patterns:
        if entries:
            raise KeyError(
                "empty --select selection: every entry is blank; drop the "
                "flag to run all rules, or name a rule id or prefix"
            )
        return [rules[rule_id]() for rule_id in sorted(rules)]
    wanted = set()
    unknown = []
    for pattern in patterns:
        matched = {
            rule_id
            for rule_id in rules
            if rule_id.upper().startswith(pattern.upper())
        }
        if not matched:
            unknown.append(pattern)
        wanted |= matched
    if unknown:
        raise KeyError(f"unknown rule ids or prefixes: {sorted(unknown)}")
    return [rules[rule_id]() for rule_id in sorted(wanted)]
