"""Queries that cannot be answered fail typed and never answer short.

There is no degraded mode: an M1 query over a ledger with no indexing
run, and a query naming an unknown model, both raise
:class:`~repro.common.errors.TemporalQueryError` rather than handing
back a substitute answer.
"""

from __future__ import annotations

from contextlib import closing

import pytest

from repro.common.errors import TemporalQueryError
from repro.fabric.network import FabricNetwork
from repro.temporal.chaincodes import SupplyChainChaincode
from repro.temporal.engine import TemporalQueryEngine
from repro.temporal.intervals import TimeInterval
from repro.workload.generator import WorkloadConfig, generate
from repro.workload.ingest import ingest
from tests.helpers import fabric_config

CONFIG = WorkloadConfig(
    name="resilient",
    n_shipments=3,
    n_containers=2,
    n_trucks=2,
    events_per_key=6,
    t_max=200,
    seed=5,
)
WINDOW = TimeInterval(0, 200)


@pytest.fixture(scope="module")
def network(tmp_path_factory):
    """Ingested ledger with NO M1 index: every m1 probe fails typed."""
    with closing(FabricNetwork(
        tmp_path_factory.mktemp("resilient"), config=fabric_config()
    )) as net:
        net.install(SupplyChainChaincode())
        ingest(net.gateway("ingestor"), generate(CONFIG).events, "supplychain")
        net.gateway("ingestor").flush()
        yield net


@pytest.fixture
def facade(network):
    return TemporalQueryEngine(network.ledger, network.metrics)


class TestDegradedMode:
    def test_unindexed_m1_raises_without_degrade(self, facade):
        with pytest.raises(TemporalQueryError, match="indexed"):
            facade.run_join("m1", WINDOW)

    def test_unknown_model_raises_even_with_degrade(self, facade):
        # ``degrade=`` is gone: an unknown model raises, and so does any
        # attempt to ask for a substitute answer.
        with pytest.raises(TemporalQueryError, match="unknown model"):
            facade.run_join("m3", WINDOW)
        with pytest.raises(TypeError):
            facade.run_join("m3", WINDOW, degrade=True)
