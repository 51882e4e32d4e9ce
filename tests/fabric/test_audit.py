"""Tests for the ledger audit tool."""

from __future__ import annotations

from contextlib import closing

import pytest

from repro.fabric.block import KVWrite
from repro.fabric.ledger import Ledger
from repro.fabric.network import FabricNetwork
from tests.helpers import KeyValueChaincode, audit, fabric_config


@pytest.fixture
def network(tmp_path):
    with closing(FabricNetwork(tmp_path, config=fabric_config(max_message_count=3))) as net:
        net.install(KeyValueChaincode())
        gateway = net.gateway("writer")
        for i in range(9):
            gateway.submit_transaction("kv", "put", [f"k{i}", i], timestamp=i + 1)
        gateway.submit_transaction("kv", "delete", ["k0"], timestamp=20)
        gateway.flush()
        yield net


class TestHealthyLedger:
    def test_clean_audit(self, network):
        report = audit(network.ledger)
        assert report.ok
        assert report.findings == []
        assert "-> consistent" in report.render()

    def test_empty_ledger(self, tmp_path):
        ledger = Ledger(tmp_path)
        report = audit(ledger)
        assert report.ok
        ledger.close()

    def test_audit_after_reopen(self, network, tmp_path):
        # The primary network fixture path holds the ledger; reopening a
        # second Ledger on it must also audit clean (memory state-db is
        # rebuilt from blocks).
        path = network.ledger.block_store._files.path.parent.parent
        reopened = Ledger(path)
        assert audit(reopened).ok
        reopened.close()


class TestDamagedLedger:
    def test_tampered_state_value_detected(self, network):
        network.ledger.state_db.apply_write([(KVWrite("k3", "evil"), (0, 0), None)])
        report = audit(network.ledger)
        assert not report.ok
        codes = {finding.code for finding in report.findings}
        assert "state-mismatch" in codes

    def test_extra_state_detected(self, network):
        network.ledger.state_db.apply_write([(KVWrite("planted", "value"), (0, 0), None)])
        report = audit(network.ledger)
        assert not report.ok
        assert any(f.code == "state-extra" for f in report.findings)

    def test_missing_state_detected(self, network):
        network.ledger.state_db.apply_write([(KVWrite("k5", None, is_delete=True), (0, 0), None)])
        report = audit(network.ledger)
        assert any(f.code == "state-missing" for f in report.findings)

    def test_corrupted_history_index_detected(self, network):
        network.ledger.history_db._locations["k3"] = [(0, 0, 0), (0, 0, 0)]
        report = audit(network.ledger)
        assert any(f.code == "history-index-divergent" for f in report.findings)

    def test_stale_savepoint_is_warning_not_error(self, network):
        network.ledger.state_db.record_savepoint(0)
        report = audit(network.ledger)
        assert report.ok  # warnings do not fail the audit
        assert any(f.code == "savepoint-stale" for f in report.findings)

    def test_findings_render(self, network):
        network.ledger.state_db.apply_write([(KVWrite("k3", "evil"), (0, 0), None)])
        rendered = audit(network.ledger).render()
        assert "INCONSISTENT" in rendered
        assert "[error] state-mismatch: 'k3'" in rendered
