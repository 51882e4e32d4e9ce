"""Chaincodes used by the temporal-query experiments.

* :class:`SupplyChainChaincode` -- plain ingestion for TQF and Model M1:
  each event is stored under its entity key, so state-db holds one
  current state per shipment/container.
* :class:`M2SupplyChainChaincode` -- Model M2 ingestion (Section VII):
  every incoming pair ``⟨k, (v, t)⟩`` is rewritten to ``⟨(k, θ), (v, t)⟩``
  where ``θ`` is the fixed-length index interval containing ``t``; the
  original pair is discarded.
* :class:`M1IndexChaincode` -- the two transactions of the M1 indexing
  process (Section VI-1): one writes the bundle ``⟨(k, θ), EV(k, θ)⟩``,
  the next deletes it from state-db so only history-db retains it.
"""

from __future__ import annotations

from typing import Any, List

from repro.common.errors import ChaincodeError
from repro.fabric.chaincode import Chaincode, ChaincodeStub
from repro.temporal.events import LOAD, UNLOAD, Event
from repro.temporal.intervals import FixedIntervalScheme
from repro.temporal.keys import interval_key_suffix, validate_base_key
from repro.temporal.m2 import walk_back


def validate_transition(current: Any, event: Event) -> None:
    """Business rule for *checked* recording (read-write workloads).

    A load is valid only when the entity is currently unloaded (no state
    yet, or the latest event is an unload); an unload must match the
    latest load's counterpart.  Enforcing this requires reading the
    current state inside the transaction -- the read-write workload the
    paper's conclusion earmarks for future benchmarking.
    """
    if event.kind == LOAD:
        if current is not None and current.get("e") == LOAD:
            raise ChaincodeError(
                f"{event.key!r} is already loaded into {current.get('o')!r}; "
                f"cannot load into {event.other!r}"
            )
    else:  # UNLOAD
        if current is None or current.get("e") != LOAD:
            raise ChaincodeError(
                f"{event.key!r} is not currently loaded; cannot unload"
            )
        if current.get("o") != event.other:
            raise ChaincodeError(
                f"{event.key!r} is loaded into {current.get('o')!r}, "
                f"not {event.other!r}"
            )


class SupplyChainChaincode(Chaincode):
    """Business chaincode: record load/unload events under entity keys."""

    name = "supplychain"

    def invoke(self, stub: ChaincodeStub, fn: str, args: List[Any]) -> Any:
        if fn == "record_event":
            key, other, time, kind = args
            event = Event(time=time, key=validate_base_key(key), other=other, kind=kind)
            stub.put_state(event.key, event.to_value())
            return {"key": event.key, "t": event.time}
        if fn == "record_events":
            # ME ingestion: one transaction, many events, all distinct keys
            # (a repeated key would silently lose a state -- Section II).
            seen: set[str] = set()
            for key, other, time, kind in args:
                if key in seen:
                    raise ChaincodeError(
                        f"record_events batch repeats key {key!r}; Fabric would "
                        "persist only one state for it"
                    )
                seen.add(key)
                event = Event(
                    time=time, key=validate_base_key(key), other=other, kind=kind
                )
                stub.put_state(event.key, event.to_value())
            return {"count": len(args)}
        if fn == "record_event_checked":
            # Read-write variant: read the entity's current state, enforce
            # load/unload alternation, then write.  The read enters the
            # RWSet, exposing the transaction to MVCC invalidation.
            key, other, time, kind = args
            event = Event(time=time, key=validate_base_key(key), other=other, kind=kind)
            current = stub.get_state(event.key)
            validate_transition(current, event)
            stub.put_state(event.key, event.to_value())
            return {"key": event.key, "t": event.time}
        raise ChaincodeError(f"unknown function {fn!r} on {self.name!r}")


class M2SupplyChainChaincode(Chaincode):
    """Model M2 ingestion: interval-tag every key at write time.

    The transformation is invisible to the submitting client; the cost is
    that applications must use the Model M2 base-access API
    (:class:`repro.temporal.m2.BaseAccessAPI`) to read "original" states.
    """

    name = "supplychain-m2"

    def __init__(self, u: int) -> None:
        self.scheme = FixedIntervalScheme(u)

    def _transformed_key(self, key: str, time: int) -> str:
        return validate_base_key(key) + interval_key_suffix(
            *self.scheme.bounds_for(time)
        )

    def invoke(self, stub: ChaincodeStub, fn: str, args: List[Any]) -> Any:
        if fn == "record_event":
            key, other, time, kind = args
            event = Event(time=time, key=key, other=other, kind=kind)
            stub.put_state(self._transformed_key(key, time), event.to_value())
            return {"key": key, "t": time}
        if fn == "record_events":
            seen: set[str] = set()
            for key, other, time, kind in args:
                if key in seen:
                    raise ChaincodeError(
                        f"record_events batch repeats key {key!r}"
                    )
                seen.add(key)
                event = Event(time=time, key=key, other=other, kind=kind)
                stub.put_state(self._transformed_key(key, time), event.to_value())
            return {"count": len(args)}
        if fn == "record_event_checked":
            # Read-write variant under M2: the entity's current state lives
            # under some (k, θ) key, so the chaincode must run the
            # GetState-Base probing loop (Section VII-B1) *inside the
            # transaction*.  Every probe -- hit or miss -- enters the
            # RWSet.
            key, other, time, kind = args
            event = Event(time=time, key=validate_base_key(key), other=other, kind=kind)
            current, _probes = walk_back(stub.get_state, self.scheme, key, time)
            validate_transition(current, event)
            stub.put_state(self._transformed_key(key, time), event.to_value())
            return {"key": key, "t": time}
        raise ChaincodeError(f"unknown function {fn!r} on {self.name!r}")


class M1IndexChaincode(Chaincode):
    """The Model M1 indexing process's on-chain operations."""

    name = "m1-index"

    #: State key holding the list of indexing-run descriptors, so query
    #: engines can reconstruct Θ(k) deterministically.
    META_KEY = "\x02m1-runs"

    def invoke(self, stub: ChaincodeStub, fn: str, args: List[Any]) -> Any:
        if fn == "write_index":
            # First transaction: ingest ⟨(k, θ), EV(k, θ)⟩.
            index_key, event_values = args
            if not event_values:
                raise ChaincodeError("refusing to index an empty event set")
            stub.put_state(index_key, event_values)
            return {"key": index_key, "events": len(event_values)}
        if fn == "clear_index":
            # Second transaction: remove the bundle from state-db; the
            # bundle stays reachable through history-db only.
            (index_key,) = args
            stub.del_state(index_key)
            return {"key": index_key}
        if fn == "record_run":
            # Append one indexing-run descriptor {t1, t2, u} to the meta key.
            (run,) = args
            runs = stub.get_state(self.META_KEY) or []
            runs.append(run)
            stub.put_state(self.META_KEY, runs)
            return {"runs": len(runs)}
        raise ChaincodeError(f"unknown function {fn!r} on {self.name!r}")
