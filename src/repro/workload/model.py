"""Entity id conventions for the supply-chain workload.

Shipments, containers and trucks get fixed-width prefixed ids so that

* a state-db range scan over one prefix enumerates one entity class
  (TQF's first step), and
* ids never contain the ``\\x00`` byte reserved by composite interval keys.
"""

from __future__ import annotations

from repro.temporal.engine import EntityNamespace

#: The default namespace shared by workload generation and query engines.
NAMESPACE = EntityNamespace(shipment_prefix="S", container_prefix="C", truck_prefix="T")

_WIDTH = 5


def shipment_id(index: int) -> str:
    """The ledger key of shipment ``index`` (e.g. ``S00042``)."""
    return f"{NAMESPACE.shipment_prefix}{index:0{_WIDTH}d}"


def container_id(index: int) -> str:
    """The ledger key of container ``index`` (e.g. ``C00007``)."""
    return f"{NAMESPACE.container_prefix}{index:0{_WIDTH}d}"


def truck_id(index: int) -> str:
    """The id of truck ``index`` (appears only inside event values)."""
    return f"{NAMESPACE.truck_prefix}{index:0{_WIDTH}d}"
