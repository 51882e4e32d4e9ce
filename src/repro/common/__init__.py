"""Shared substrate for the repro package.

This subpackage holds the pieces every other layer builds on:

* :mod:`repro.common.errors` -- the exception hierarchy.
* :mod:`repro.common.timeutils` -- logical timestamps and stopwatches.
* :mod:`repro.common.config` -- typed configuration dataclasses.
* :mod:`repro.common.codec` -- the block and state-record codec and its varints.
* :mod:`repro.common.metrics` -- counters and timers used to instrument
  the ledger (blocks deserialized, GHFK calls, bytes read, ...).
"""

from repro.common.errors import (
    ReproError,
    CodecError,
    ConfigError,
    LedgerError,
    StorageError,
)
from repro.common.metrics import MetricsRegistry
from repro.common.timeutils import Stopwatch

__all__ = [
    "ReproError",
    "CodecError",
    "ConfigError",
    "LedgerError",
    "StorageError",
    "MetricsRegistry",
    "Stopwatch",
]
