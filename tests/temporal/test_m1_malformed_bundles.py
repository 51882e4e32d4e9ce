"""A malformed event inside an M1 bundle fails the fetch with the error
:meth:`Event.from_value` raises for it alone.

A bundle's events are built in one pass; a value that pass cannot build
is re-read value by value, so the message names the same value, and a
good event ahead of the bad one changes nothing.
"""

from __future__ import annotations

import pytest

from repro.common.config import BlockCuttingConfig, FabricConfig
from repro.common.errors import TemporalQueryError
from repro.fabric.network import FabricNetwork
from repro.temporal.chaincodes import M1IndexChaincode
from repro.temporal.events import LOAD, Event, events_from_values
from repro.temporal.intervals import TimeInterval
from repro.temporal.keys import encode_interval_key
from repro.temporal.m1 import M1QueryEngine

#: The malformed values of ``tests/temporal/test_keys_events.py``'s
#: ``test_from_value_error_messages``, with their messages for key ``k``.
MALFORMED = [
    ({"t": 0, "o": "x", "e": LOAD},
     "event time must be positive (no (start, end] interval contains 0)"),
    ({"t": 1, "o": "x", "e": "q"}, "event kind must be 'l' or 'ul', got 'q'"),
    ({"t": 0, "o": "x", "e": "q"}, "event kind must be 'l' or 'ul', got 'q'"),
    ({"o": "x", "e": LOAD}, "malformed event value for key 'k': {'o': 'x', 'e': 'l'}"),
    ({"t": 1, "e": LOAD}, "malformed event value for key 'k': {'t': 1, 'e': 'l'}"),
    ({"t": 1, "e": "q"}, "malformed event value for key 'k': {'t': 1, 'e': 'q'}"),
    ({"t": None, "o": "x", "e": LOAD},
     "malformed event value for key 'k': {'t': None, 'o': 'x', 'e': 'l'}"),
    (None, "malformed event value for key 'k': None"),
]

U = 100
GOOD = {"t": 5, "o": "C1", "e": LOAD}


def bundles():
    """Per case, a bundle holding the bad value alone and one holding it
    behind a good event: ``(interval, bundle, message)``."""
    for index, (value, message) in enumerate(MALFORMED):
        for offset, bundle in ((0, [value]), (1, [GOOD, value])):
            start = (2 * index + offset) * U
            yield TimeInterval(start, start + U), bundle, message


@pytest.fixture(scope="module")
def ledger(tmp_path_factory):
    """One indexing run over every bundle of :func:`bundles`, written
    through the M1 chaincode exactly as the indexer writes them."""
    network = FabricNetwork(
        tmp_path_factory.mktemp("malformed"),
        config=FabricConfig(block_cutting=BlockCuttingConfig(max_message_count=4)),
    )
    network.install(M1IndexChaincode())
    gateway = network.gateway("indexer")
    end = 0
    for interval, bundle, _ in bundles():
        index_key = encode_interval_key("k", interval)
        gateway.submit_transaction(
            M1IndexChaincode.name, "write_index", [index_key, bundle], timestamp=interval.end
        )
        gateway.submit_transaction(
            M1IndexChaincode.name, "clear_index", [index_key], timestamp=interval.end
        )
        end = interval.end
    gateway.submit_transaction(M1IndexChaincode.name, "record_run", [{"t1": 0, "t2": end, "u": U}])
    gateway.flush()
    yield network.ledger
    network.close()


@pytest.mark.parametrize(
    "interval, bundle, message", list(bundles()),
    ids=[f"{index // 2}-{'alone' if index % 2 == 0 else 'behind-good'}"
         for index in range(2 * len(MALFORMED))],
)
def test_a_malformed_bundle_value_raises_the_message_of_from_value(
    ledger, interval, bundle, message
):
    engine = M1QueryEngine(ledger)
    with pytest.raises(TemporalQueryError) as fetched:
        engine.fetch_events("k", interval)
    assert str(fetched.value) == message
    with pytest.raises(TemporalQueryError) as alone:
        Event.from_value("k", bundle[-1])
    assert str(alone.value) == message


def test_the_one_pass_builds_what_from_value_builds():
    values = [GOOD, {"t": 7, "o": "C2", "e": "ul"}]
    assert events_from_values("k", values) == [Event.from_value("k", v) for v in values]
    assert events_from_values("k", []) == []
