"""Exception hierarchy for the repro package.

Every exception raised by this library derives from :class:`ReproError`,
so callers can catch a single base class at API boundaries.  Layer-specific
subclasses keep the failure domain obvious from the type alone.

The full hierarchy::

    ReproError
    ├── ConfigError              bad configuration value
    ├── CodecError               payload (de)serialization failed
    ├── StorageError             storage layer (KV store, block files)
    │   ├── WalCorruptionError   WAL record fails its checksum
    │   ├── SSTableError         malformed SSTable file
    │   ├── BlockFileError       malformed block file / bad block location
    │   └── ClosedStoreError     operation on a closed store
    ├── LedgerError              Fabric-simulator failures
    │   ├── BlockNotFoundError
    │   ├── TransactionValidationError
    │   ├── EndorsementError
    │   ├── ChaincodeError
    │   ├── HashChainError
    │   └── OrdererHaltedError   submits refused: a cut block failed to commit
    ├── TemporalQueryError
    │   └── IndexingError
    ├── WorkloadError
    └── FaultInjectionError      the fault-injection subsystem itself
        └── SimulatedCrashError  a scheduled crash point fired

:class:`SimulatedCrashError` is special: it is *not* a failure of the
system under test but the fault harness's signal to "kill" the process at
an instrumented crash point.  Production code must never catch it (the
harness relies on it propagating to the top), which is why it derives
from :class:`FaultInjectionError` rather than any layer error that
library code legitimately handles.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """An invalid or inconsistent configuration value was supplied."""


class CodecError(ReproError):
    """Serialization or deserialization of a payload failed."""


class StorageError(ReproError):
    """Base class for storage-layer failures (KV store, block files)."""


class WalCorruptionError(StorageError):
    """The write-ahead log contains a record that fails its checksum."""


class SSTableError(StorageError):
    """An SSTable file is malformed or its footer cannot be parsed."""


class BlockFileError(StorageError):
    """A ledger block file is malformed or a block location is invalid."""


class ClosedStoreError(StorageError):
    """An operation was attempted on a store that has been closed."""


class LedgerError(ReproError):
    """Base class for Fabric-simulator failures."""


class BlockNotFoundError(LedgerError):
    """A block number beyond the current chain height was requested."""


class TransactionValidationError(LedgerError):
    """A transaction failed validation (e.g. an MVCC read conflict)."""


class EndorsementError(LedgerError):
    """Chaincode simulation failed during the endorsement phase."""


class ChaincodeError(LedgerError):
    """A chaincode invocation raised an application-level error."""


class HashChainError(LedgerError):
    """A block's previous-hash link does not match the chain."""


class OrdererHaltedError(LedgerError):
    """The orderer refuses every submit since a block it cut failed to
    commit; reopening the network resumes from the ledger's head."""


class TemporalQueryError(ReproError):
    """A temporal query was malformed or could not be answered."""


class IndexingError(TemporalQueryError):
    """The M1 indexing process encountered an inconsistent ledger state."""


class WorkloadError(ReproError):
    """The synthetic workload generator was given unsatisfiable parameters."""


class FaultInjectionError(ReproError):
    """The fault-injection subsystem was misused or hit a dead filesystem."""


class SimulatedCrashError(FaultInjectionError):
    """A scheduled crash point fired: the harness must treat the process
    as killed (drop the network object, then reopen and recover)."""

    def __init__(self, crash_point: str) -> None:
        super().__init__(f"simulated crash at {crash_point!r}")
        self.crash_point = crash_point
