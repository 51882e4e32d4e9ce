"""Built-in rule families.  Importing this package registers them all."""

from __future__ import annotations

from repro.analysis.rules import (
    crashpoints,
    dataflow_determinism,
    determinism,
    durability,
    exceptions,
    resources,
)

__all__ = [
    "crashpoints",
    "dataflow_determinism",
    "determinism",
    "durability",
    "exceptions",
    "resources",
]
