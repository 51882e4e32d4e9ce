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
        """JSON-object form used by ``--format json`` and the result cache."""
        return {
            "rule": self.rule_id,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }

    @staticmethod
    def from_json(raw: Dict[str, Any]) -> "Finding":
        """Invert :meth:`to_json` (used when replaying the result cache)."""
        return Finding(
            path=str(raw["path"]),
            line=int(raw.get("line", 0)),
            rule_id=str(raw["rule"]),
            message=str(raw["message"]),
        )
