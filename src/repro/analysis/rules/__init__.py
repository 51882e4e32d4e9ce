"""Built-in rule families.  Importing this package registers them all."""

from __future__ import annotations

from repro.analysis.rules import durability, resources

__all__ = ["durability", "resources"]
