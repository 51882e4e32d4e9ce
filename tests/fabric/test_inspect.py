"""Tests for chain inspection utilities and the inspect/verify CLI."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.cli import main
from repro.fabric.historydb import HistoryDB
from repro.fabric.inspect import summarize_chain
from tests.helpers import build_plain_network, index_only_block, small_workload


@pytest.fixture(scope="module")
def workload():
    return small_workload()


@pytest.fixture(scope="module")
def network(tmp_path_factory, workload):
    network = build_plain_network(tmp_path_factory.mktemp("inspect"), workload)
    yield network
    network.close()


class TestSummarizeChain:
    def test_counts(self, network, workload):
        summary = summarize_chain(network.ledger)
        assert summary.height == network.ledger.height
        assert summary.total_transactions >= summary.valid_transactions
        assert summary.valid_transactions > 0
        assert summary.invalidated_transactions == 0
        assert summary.total_block_bytes > 0
        assert summary.history_keys == workload.config.key_count
        assert summary.state_count >= workload.config.key_count

    def test_txs_per_block_histogram_accounts_for_all_blocks(self, network):
        summary = summarize_chain(network.ledger)
        assert sum(summary.txs_per_block.values()) == summary.height

    def test_widest_histories_sorted(self, network):
        summary = summarize_chain(network.ledger, top_keys=3)
        widths = [blocks for _, blocks in summary.widest_histories]
        assert widths == sorted(widths, reverse=True)
        assert len(summary.widest_histories) == 3

    def test_render_mentions_height(self, network):
        text = summarize_chain(network.ledger).render()
        assert f"{network.ledger.height} blocks" in text


class TestHistoryKeysSnapshot:
    def test_keys_is_a_snapshot_not_a_view(self, network, workload):
        history = network.ledger.history_db
        keys = history.keys()
        assert len(keys) == history.key_count() == workload.config.key_count
        keys.clear()
        assert history.key_count() == workload.config.key_count

class TestCli:
    def test_inspect_command(self, network, capsys):
        # The network fixture's ledger lives in its workdir; inspect a copy
        # via the ledger path the network was built on.
        path = network.ledger.block_store._files.path.parent.parent
        exit_code = main(["inspect", str(path)])
        assert exit_code == 0
        assert "chain height" in capsys.readouterr().out

    def test_inspect_refuses_a_missing_directory(self, tmp_path, capsys):
        assert main(["inspect", str(tmp_path / "nope")]) == 1
        captured = capsys.readouterr()
        assert "is not a directory" in captured.err
        assert "chain height" not in captured.out
        assert not (tmp_path / "nope").exists()  # diagnostics create nothing

    @pytest.mark.slow
    def test_verify_command(self, capsys):
        exit_code = main(["verify", "--scale", "0.02", "--entity-scale", "0.1"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "all models agree" in out
        assert "MISMATCH" not in out
