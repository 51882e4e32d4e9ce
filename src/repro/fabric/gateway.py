"""Client-side SDK: submit and evaluate transactions through the network.

``submit_transaction`` runs the full write path (endorse, order, commit
when a block is cut); ``evaluate_transaction`` runs chaincode against the
peer without submitting anything (Fabric's query path).
"""

from __future__ import annotations

import time
from typing import Any, Callable, List, Optional

from repro.common.locks import make_lock
from repro.common.resilience import RetryPolicy
from repro.sanitizer.shared import sanitize_shared
from repro.fabric.block import MVCC_READ_CONFLICT
from repro.fabric.identity import Identity
from repro.fabric.orderer import SoloOrderer
from repro.fabric.peer import Peer


class SubmitResult:
    """Outcome of a submitted transaction."""

    __slots__ = ("tx_id", "response")

    def __init__(self, tx_id: str, response: Any) -> None:
        self.tx_id = tx_id
        self.response = response

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SubmitResult(tx_id={self.tx_id!r})"


@sanitize_shared("retries_attempted")
class Gateway:
    """A client connection bound to one identity.

    With ``max_retries > 0`` the gateway resubmits a transaction whose
    commit was invalidated by an MVCC read conflict -- Fabric's standard
    client-side answer to concurrent writers -- re-endorsing against the
    fresh state each attempt.  Backoff between attempts comes from a
    :class:`~repro.common.resilience.RetryPolicy`: bounded exponential
    with seeded jitter, so the delay schedule is deterministic under a
    seed instead of timing-flaky.  A conflict is only observable when the
    submission itself cut (and therefore committed) a block; a
    transaction still queued at the orderer has no verdict yet and is
    never retried.
    """

    def __init__(
        self,
        peer: Peer,
        orderer: SoloOrderer,
        identity: Identity,
        max_retries: int = 0,
        backoff_base: float = 0.01,
        backoff_cap: float = 0.5,
        backoff_jitter: float = 0.0,
        backoff_seed: int = 0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self._peer = peer
        self._orderer = orderer
        self._identity = identity
        self._policy = RetryPolicy(
            max_retries=max_retries,
            base=backoff_base,
            cap=backoff_cap,
            jitter=backoff_jitter,
            seed=backoff_seed,
            sleep=sleep,
        )
        # A gateway may be shared by client threads; the lock covers the
        # mutable statistics.  The retry sleep always happens *outside*
        # it (CONC003 polices this).
        self._lock = make_lock("Gateway._lock")
        self.retries_attempted = 0

    def submit_transaction(
        self,
        chaincode: str,
        fn: str,
        args: Optional[List[Any]] = None,
        timestamp: int = 0,
    ) -> SubmitResult:
        """Endorse ``fn(args)`` and hand the transaction to the orderer.

        The block containing the transaction commits when the orderer cuts
        it (batch full) or on :meth:`flush`.
        """
        delays = self._policy.delays()
        attempt = 0
        while True:
            tx, response = self._peer.endorse(
                chaincode, fn, list(args or []), creator=self._identity.name,
                timestamp=timestamp,
            )
            self._orderer.submit(tx)
            # The validator stamps the verdict onto this same object when
            # the block containing it commits.
            if (
                tx.validation_code != MVCC_READ_CONFLICT
                or attempt >= self._policy.max_retries
            ):
                return SubmitResult(tx_id=tx.tx_id, response=response)
            attempt += 1
            with self._lock:
                self.retries_attempted += 1
            self._policy.sleep(next(delays))

    def evaluate_transaction(
        self,
        chaincode: str,
        fn: str,
        args: Optional[List[Any]] = None,
        timestamp: int = 0,
    ) -> Any:
        """Run chaincode as a query: nothing is ordered or committed."""
        _, response = self._peer.endorse(
            chaincode, fn, list(args or []), creator=self._identity.name,
            timestamp=timestamp,
        )
        return response

    def flush(self) -> None:
        """Force the orderer to cut any pending partial block."""
        self._orderer.flush()
