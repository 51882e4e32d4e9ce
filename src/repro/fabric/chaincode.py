"""Chaincode interface and the stub handed to chaincode during simulation.

A chaincode's ``invoke`` receives a :class:`ChaincodeStub` bound to the
endorsing peer's committed state.  As in Fabric v1.x:

* ``get_state`` reads **committed** state only -- a transaction does not
  observe its own pending writes -- and records the observed version in
  the read set for MVCC validation;
* ``put_state`` / ``del_state`` accumulate in the write set, with at most
  one surviving write per key (later writes replace earlier ones);
* ``get_history_for_key`` and ``get_state_by_range`` are query APIs; range
  reads record read versions, history reads do not enter the RWSet
  (Fabric does not validate phantom history reads);
* composite keys (``create_composite_key`` and the partial-key scan) are
  plain state keys under a ``\\x00`` frame, scanned by prefix up to
  Fabric's ``maxUnicodeRuneValue``.

Everything a simulation produces leaves the stub in its ``rw_set`` and its
one optional event: the endorser builds the transaction from those alone.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Iterator, List, Optional, Tuple

from repro.common.errors import ChaincodeError
from repro.fabric.block import RWSet
from repro.fabric.blockstore import BlockStore
from repro.fabric.historydb import HistoryDB, HistoryEntry
from repro.fabric.statedb import StateDB

#: Delimiter used by Fabric's composite-key helpers (U+0000, the minimum
#: code point, so composite keys group correctly under range scans).
COMPOSITE_DELIMITER = "\x00"

#: Exclusive upper bound of a prefix scan (partial composite keys here, the
#: temporal engines' ``list_keys``): Fabric's ``maxUnicodeRuneValue``, the
#: largest code point the text after the prefix can start with.
MAX_UNICODE_RUNE = "\U0010ffff"


def create_composite_key(object_type: str, attributes: List[str]) -> str:
    """Fabric's ``CreateCompositeKey``: join an object type and attribute
    values into one state key that range-scans by prefix.

    Layout: ``\\x00 objectType \\x00 attr1 \\x00 attr2 \\x00 ...`` -- the
    leading delimiter keeps composite keys out of the simple-key namespace,
    exactly as in Fabric.
    """
    for part in [object_type, *attributes]:
        if not part:
            raise ChaincodeError("composite key parts must be non-empty")
        if COMPOSITE_DELIMITER in part:
            raise ChaincodeError(
                f"composite key part {part!r} contains the delimiter byte"
            )
    return COMPOSITE_DELIMITER + COMPOSITE_DELIMITER.join([object_type, *attributes]) + COMPOSITE_DELIMITER


def split_composite_key(composite: str) -> tuple[str, List[str]]:
    """Fabric's ``SplitCompositeKey``: invert :func:`create_composite_key`."""
    if not composite.startswith(COMPOSITE_DELIMITER) or not composite.endswith(
        COMPOSITE_DELIMITER
    ):
        raise ChaincodeError(f"not a composite key: {composite!r}")
    parts = composite[1:-1].split(COMPOSITE_DELIMITER)
    if not parts or not parts[0]:
        raise ChaincodeError(f"composite key missing object type: {composite!r}")
    return parts[0], parts[1:]


class ChaincodeStub:
    """Transaction-simulation context exposed to chaincode."""

    def __init__(
        self,
        state_db: StateDB,
        history_db: HistoryDB,
        block_store: BlockStore,
        tx_id: str,
        timestamp: int,
        creator: str,
    ) -> None:
        self._state_db = state_db
        self._history_db = history_db
        self._block_store = block_store
        self.tx_id = tx_id
        self.timestamp = timestamp
        self.creator = creator
        self.rw_set = RWSet()
        self.event_name = ""
        self.event_payload: Any = None

    # -- state access -----------------------------------------------------

    def get_state(self, key: str) -> Optional[Any]:
        """Committed current value of ``key`` (recorded in the read set)."""
        state = self._state_db.get_state(key)
        self.rw_set.add_read(key, state.version if state else None)
        return state.value if state else None

    def put_state(self, key: str, value: Any) -> None:
        """Stage a write.  A later ``put_state`` on the same key replaces it."""
        if not key:
            raise ChaincodeError("put_state requires a non-empty key")
        self.rw_set.add_write(key, value)

    def del_state(self, key: str) -> None:
        """Stage a deletion (removes the key from state-db at commit)."""
        if not key:
            raise ChaincodeError("del_state requires a non-empty key")
        self.rw_set.add_delete(key)

    def get_state_by_range(
        self, start_key: str, end_key: str
    ) -> Iterator[Tuple[str, Any]]:
        """Sorted scan over committed current states (Fabric GetStateByRange).

        Each returned key is recorded in the read set with its version.
        """
        for key, state in self._state_db.get_state_by_range(start_key, end_key):
            self.rw_set.add_read(key, state.version)
            yield key, state.value

    def create_composite_key(self, object_type: str, attributes: List[str]) -> str:
        """Fabric's CreateCompositeKey (see module-level helper)."""
        return create_composite_key(object_type, attributes)

    def split_composite_key(self, composite: str) -> Tuple[str, List[str]]:
        """Fabric's SplitCompositeKey."""
        return split_composite_key(composite)

    def get_state_by_partial_composite_key(
        self, object_type: str, attributes: List[str]
    ) -> Iterator[Tuple[str, Any]]:
        """Fabric's GetStateByPartialCompositeKey: all composite keys whose
        leading attributes match, in sorted order.

        Range-scans ``[prefix, prefix + maxUnicodeRuneValue)`` where the
        prefix is the composite encoding of the given attributes, trailing
        delimiter included.
        """
        prefix = create_composite_key(object_type, attributes)
        return self.get_state_by_range(prefix, prefix + MAX_UNICODE_RUNE)

    def get_history_for_key(self, key: str) -> Iterator[HistoryEntry]:
        """Fabric GHFK: lazy, oldest-first iterator over all past states."""
        return self._history_db.get_history_for_key(key, self._block_store)

    def get_tx_timestamp(self) -> int:
        """The transaction's logical timestamp (Fabric GetTxTimestamp)."""
        return self.timestamp

    def set_event(self, name: str, payload: Any = None) -> None:
        """Attach a chaincode event to the transaction (Fabric SetEvent).

        At most one event per transaction; a later call replaces the
        earlier one.  Events of *valid* transactions are delivered to
        block listeners after commit.
        """
        if not name:
            raise ChaincodeError("event name must be non-empty")
        self.event_name = name
        self.event_payload = payload


class Chaincode(ABC):
    """Base class for chaincodes deployed on the simulated network."""

    #: Chaincode name used when submitting transactions.
    name: str = "chaincode"

    @abstractmethod
    def invoke(self, stub: ChaincodeStub, fn: str, args: List[Any]) -> Any:
        """Execute function ``fn`` with ``args`` against ``stub``.

        The return value becomes the proposal response payload.  Raise
        :class:`ChaincodeError` to reject the proposal.
        """


class KeyValueChaincode(Chaincode):
    """A minimal general-purpose chaincode: put / get / delete / history.

    Used by tests and as the default application when no domain chaincode
    is installed.
    """

    name = "kv"

    def invoke(self, stub: ChaincodeStub, fn: str, args: List[Any]) -> Any:
        if fn == "put":
            key, value = args
            stub.put_state(key, value)
            return {"key": key}
        if fn == "get":
            (key,) = args
            return stub.get_state(key)
        if fn == "delete":
            (key,) = args
            stub.del_state(key)
            return {"key": key}
        if fn == "put_many":
            for key, value in args:
                stub.put_state(key, value)
            return {"count": len(args)}
        if fn == "history":
            (key,) = args
            return [entry.value for entry in stub.get_history_for_key(key)]
        raise ChaincodeError(f"unknown function {fn!r} on chaincode {self.name!r}")
