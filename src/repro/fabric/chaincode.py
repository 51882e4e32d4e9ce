"""Chaincode interface and the stub handed to chaincode during simulation.

A chaincode's ``invoke`` receives a :class:`ChaincodeStub` bound to the
endorsing peer's committed state.  As in Fabric v1.x:

* ``get_state`` reads **committed** state only -- a transaction does not
  observe its own pending writes -- and records the observed version in
  the read set for MVCC validation;
* ``put_state`` / ``del_state`` accumulate in the write set, with at most
  one surviving write per key (later writes replace earlier ones).

Everything a simulation produces leaves the stub in its ``rw_set`` and its
one optional event: the endorser builds the transaction from those alone.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, List, Optional

from repro.common.errors import ChaincodeError
from repro.fabric.block import RWSet
from repro.fabric.statedb import StateDB


class ChaincodeStub:
    """Transaction-simulation context exposed to chaincode."""

    def __init__(
        self,
        state_db: StateDB,
        tx_id: str,
        timestamp: int,
        creator: str,
    ) -> None:
        self._state_db = state_db
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

    def set_event(self, name: str, payload: Any = None) -> None:
        """Attach a chaincode event to the transaction (Fabric SetEvent).

        At most one event per transaction; a later call replaces the
        earlier one.  The event is signed and stored with the
        transaction, and read back from its committed block.
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
