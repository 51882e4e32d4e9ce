"""The endorsement phase: simulate a proposal against committed state.

An endorser runs the chaincode with a fresh :class:`ChaincodeStub`,
captures the read/write sets, signs the result and returns an endorsed
:class:`Transaction` ready for ordering.  (The paper uses a single peer,
so one endorsement satisfies the policy.)
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.common.errors import EndorsementError, FaultInjectionError, ReproError
from repro.fabric import crypto
from repro.fabric.block import Transaction
from repro.fabric.chaincode import Chaincode, ChaincodeStub
from repro.fabric.identity import Identity
from repro.fabric.statedb import StateDB


class Endorser:
    """Simulates proposals on behalf of one peer identity."""

    def __init__(self, identity: Identity, state_db: StateDB) -> None:
        self._identity = identity
        self._state_db = state_db
        self._chaincodes: Dict[str, Chaincode] = {}
        self._tx_occurrences: Dict[Tuple[str, int], int] = {}

    def install(self, chaincode: Chaincode) -> None:
        self._chaincodes[chaincode.name] = chaincode

    def endorse(
        self,
        chaincode_name: str,
        fn: str,
        args: List[Any],
        creator: str,
        timestamp: int,
    ) -> tuple[Transaction, Any]:
        """Simulate and sign one proposal.

        Returns the endorsed transaction and the chaincode's response
        payload.  Raises :class:`EndorsementError` if the chaincode is not
        installed or its invocation fails.
        """
        chaincode = self._chaincodes.get(chaincode_name)
        if chaincode is None:
            raise EndorsementError(f"chaincode {chaincode_name!r} is not installed")
        tx_id = self._next_tx_id(creator, timestamp)
        stub = ChaincodeStub(
            state_db=self._state_db,
            tx_id=tx_id,
            timestamp=timestamp,
            creator=creator,
        )
        try:
            response = chaincode.invoke(stub, fn, args)
        except (FaultInjectionError, EndorsementError):
            # SimulatedCrashError must reach the fault harness untouched;
            # wrapping it here would let chaincode survive its own crash.
            raise
        except (ReproError, ValueError, TypeError, KeyError, IndexError, AttributeError) as exc:
            # Library errors plus the data-shape errors malformed client
            # arguments produce; genuine programming errors still propagate.
            raise EndorsementError(
                f"chaincode {chaincode_name!r} fn {fn!r} failed: {exc}"
            ) from exc
        tx = Transaction(
            tx_id=tx_id,
            chaincode=chaincode_name,
            creator=creator,
            timestamp=timestamp,
            rw_set=stub.rw_set,
            event_name=stub.event_name,
            event_payload=stub.event_payload,
        )
        tx.signature = self._identity.sign(tx.signable_payload())
        return tx, response

    def verify_endorsement(self, tx: Transaction) -> bool:
        """Check the endorser signature over a transaction's RWSet."""
        return self._identity.verify(tx.signable_payload(), tx.signature)

    def _next_tx_id(self, creator: str, timestamp: int) -> str:
        """Deterministic tx id: hash of (creator, timestamp, occurrence).

        The occurrence counter is *per (creator, timestamp)*, not a
        session-global counter: a proposal's id depends only on what was
        proposed and how many times this client proposed it, so a
        workload replayed after a crash produces byte-identical
        transactions (and therefore byte-identical block hashes), which
        the faulted-traffic tests check.  Within a session an
        MVCC resubmission of the same proposal still gets a fresh id
        (occurrence 2), as Fabric's nonce-based ids would.
        """
        occurrence = self._tx_occurrences.get((creator, timestamp), 0) + 1
        self._tx_occurrences[(creator, timestamp)] = occurrence
        seed = f"{creator}|{timestamp}|{occurrence}".encode("utf-8")
        return crypto.sha256_hex(seed)[:32]
