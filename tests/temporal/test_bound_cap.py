"""The 10**12 cap on interval bounds spelled into ``(k, θ)`` keys.

A key's bound fields are twelve digits wide, so a thirteen-digit bound
would sort before smaller ones: an M2 ledger holding events at ``10**12 -
5`` and ``10**12 + 5`` answered the window ``(10**12 - 10, 10**12 + 10]``
with nothing while TQF returned both events.  Every spelling of an
interval key now refuses a bound at or past the cap, so ingest, indexing
and base access past it fail loudly; query windows are never spelled as
keys and still answer.
"""

from __future__ import annotations

from contextlib import closing

import pytest

from repro.common.errors import EndorsementError, IndexingError, TemporalQueryError
from repro.fabric.network import FabricNetwork
from repro.temporal.chaincodes import (
    M1IndexChaincode,
    M2SupplyChainChaincode,
    SupplyChainChaincode,
)
from repro.temporal.events import LOAD, UNLOAD, Event
from repro.temporal.intervals import TimeInterval
from repro.temporal.keys import (
    BOUND_CAP,
    bound_field,
    decode_interval_key,
    interval_key_suffix,
)
from repro.temporal.m1 import M1Indexer
from repro.temporal.m2 import BaseAccessAPI, M2QueryEngine
from repro.temporal.tqf import TQFEngine
from repro.workload.ingest import ingest
from tests.helpers import fabric_config

U = 10
EVENTS = [
    Event(time=BOUND_CAP - 5, key="S00001", other="C00001", kind=LOAD),
    Event(time=BOUND_CAP + 5, key="S00001", other="C00001", kind=UNLOAD),
]
WINDOW = TimeInterval(BOUND_CAP - 10, BOUND_CAP + 10)


class TestSpelling:
    def test_the_cap_is_the_bound_field_width(self):
        assert BOUND_CAP == 10**12
        assert len(bound_field(BOUND_CAP - 1)) == len(bound_field(0))

    def test_the_last_interval_below_the_cap_is_spelled(self):
        suffix = interval_key_suffix(BOUND_CAP - U, BOUND_CAP - 1)
        assert decode_interval_key("S1" + suffix) == (
            "S1", TimeInterval(BOUND_CAP - U, BOUND_CAP - 1)
        )

    @pytest.mark.parametrize(
        "start, end", [(BOUND_CAP - U, BOUND_CAP), (BOUND_CAP, BOUND_CAP + U)]
    )
    def test_a_bound_at_or_past_the_cap_is_refused_naming_it(self, start, end):
        with pytest.raises(TemporalQueryError, match=str(BOUND_CAP)):
            interval_key_suffix(start, end)

    @pytest.mark.parametrize("start, end", [(-U, 0), (U, U), (2 * U, U)])
    def test_a_negative_or_empty_interval_is_refused(self, start, end):
        with pytest.raises(TemporalQueryError):
            interval_key_suffix(start, end)


class TestPastTheCap:
    @pytest.fixture(scope="class")
    def m2(self, tmp_path_factory):
        network = FabricNetwork(tmp_path_factory.mktemp("m2-cap"), config=fabric_config())
        network.install(M2SupplyChainChaincode(u=U))
        yield network
        network.close()

    def test_tqf_answers_both_events(self, tmp_path):
        with closing(FabricNetwork(tmp_path, config=fabric_config())) as network:
            network.install(SupplyChainChaincode())
            ingest(network.gateway("ingestor"), EVENTS, SupplyChainChaincode.name)
            assert TQFEngine(network.ledger).fetch_events("S00001", WINDOW) == EVENTS

    @pytest.mark.parametrize("event", EVENTS, ids=["below", "past"])
    def test_m2_ingest_of_an_event_whose_interval_reaches_the_cap_fails(
        self, m2, event
    ):
        # (10**12 - 10, 10**12] holds the first event: its end is the cap.
        height = m2.ledger.height
        with pytest.raises(EndorsementError, match=str(BOUND_CAP)):
            ingest(m2.gateway("ingestor"), [event], M2SupplyChainChaincode.name)
        m2.gateway("ingestor").flush()
        assert m2.ledger.height == height

    def test_the_window_still_answers_what_the_ledger_holds(self, m2):
        assert M2QueryEngine(m2.ledger).fetch_events("S00001", WINDOW) == []

    def test_base_access_past_the_cap_fails(self, m2):
        api = BaseAccessAPI(m2.ledger, u=U)
        with pytest.raises(TemporalQueryError, match=str(BOUND_CAP)):
            api.get_state_base("S00001", BOUND_CAP)
        with pytest.raises(TemporalQueryError, match=str(BOUND_CAP)):
            list(api.ghfk_base("S00001", BOUND_CAP + 5))

    def test_an_m1_run_ending_at_the_cap_is_rejected_before_any_write(self, tmp_path):
        with closing(FabricNetwork(tmp_path, config=fabric_config())) as network:
            network.install(SupplyChainChaincode())
            network.install(M1IndexChaincode())
            ingest(network.gateway("ingestor"), EVENTS, SupplyChainChaincode.name)
            height = network.ledger.height
            indexer = M1Indexer(
                ledger=network.ledger,
                gateway=network.gateway("indexer"),
                key_prefixes=["S"],
            )
            with pytest.raises(IndexingError, match=str(BOUND_CAP)):
                indexer.run(0, BOUND_CAP, U)
            assert network.ledger.height == height
            indexer.run(0, BOUND_CAP - 1, BOUND_CAP // 4)  # just below is fine
            assert network.ledger.height > height
