"""The unit of analyzer output: one finding at one source location."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation.

    ``path`` is project-root-relative with forward slashes so findings
    are stable across machines.
    """

    path: str
    line: int
    rule_id: str
    message: str

    def render(self) -> str:
        """The one-line human form: ``path:line: RULE message``."""
        return f"{self.path}:{self.line}: {self.rule_id} {self.message}"

    def to_json(self) -> Dict[str, Any]:
        """JSON-object form used by ``--format json``."""
        return {
            "rule": self.rule_id,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }
