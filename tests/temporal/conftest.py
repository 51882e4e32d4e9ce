"""Module-scoped ingested networks shared by the temporal tests."""

from __future__ import annotations

import pytest

from tests.helpers import (
    build_m1_index,
    build_m2_network,
    build_plain_network,
    small_workload,
)


@pytest.fixture(scope="session")
def workload():
    return small_workload()


@pytest.fixture(scope="session")
def plain_network(tmp_path_factory, workload):
    """Plain ingestion + a full M1 index at u=100 over (0, 1000]."""
    network = build_plain_network(tmp_path_factory.mktemp("plain"), workload)
    build_m1_index(network, t1=0, t2=workload.config.t_max, u=100)
    yield network
    network.close()


@pytest.fixture(scope="session")
def m2_network(tmp_path_factory, workload):
    network = build_m2_network(tmp_path_factory.mktemp("m2"), workload, u=100)
    yield network
    network.close()


@pytest.fixture(scope="session")
def three_runs(tmp_path_factory, workload):
    """Plain ingestion indexed by three abutting M1 runs, each its own
    ``u``, none aligned to the next: (0,330] u=100, (330,610] u=70,
    (610,1000] u=45."""
    network = build_plain_network(tmp_path_factory.mktemp("three-runs"), workload)
    build_m1_index(network, t1=0, t2=330, u=100)
    build_m1_index(network, t1=330, t2=610, u=70)
    build_m1_index(network, t1=610, t2=workload.config.t_max, u=45)
    yield network
    network.close()
