"""Tests for chain inspection utilities and the inspect/verify CLI."""

from __future__ import annotations

import threading
from types import SimpleNamespace

import pytest

from repro.cli import main
from repro.fabric.historydb import HistoryDB
from repro.fabric.inspect import ghfk_cost_profile, summarize_chain
from repro.sanitizer import runtime
from repro.sanitizer.scenarios import _fake_block
from tests.helpers import build_plain_network, small_workload


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


class TestGhfkCostProfile:
    def test_profile_covers_entity_keys(self, network, workload):
        profile = ghfk_cost_profile(network.ledger)
        assert set(profile) == set(workload.shipments + workload.containers)
        assert all(blocks >= 1 for blocks in profile.values())

    def test_prefix_filter(self, network, workload):
        profile = ghfk_cost_profile(network.ledger, prefix="S")
        assert set(profile) == set(workload.shipments)


class TestHistoryKeysSnapshot:
    def test_keys_is_a_snapshot_not_a_view(self, network, workload):
        history = network.ledger.history_db
        keys = history.keys()
        assert len(keys) == history.key_count() == workload.config.key_count
        keys.clear()
        assert history.key_count() == workload.config.key_count

    def test_profile_racing_a_commit_reads_the_index_under_its_lock(self):
        """``ghfk_cost_profile`` runs while a gateway may be committing:
        it must enumerate keys through the locked ``HistoryDB.keys()``,
        never the live ``_locations`` dict -- the dynamic race sanitizer
        sees every access to that attribute and the locks held."""
        with runtime.sanitized(seed=18) as sanitizer:
            history = HistoryDB()
            ledger = SimpleNamespace(history_db=history)
            profiles = []
            workers = [
                threading.Thread(
                    target=lambda: [
                        history.index_block(_fake_block(n, [f"S{n:03d}"])) for n in range(40)
                    ]
                ),
                threading.Thread(
                    target=lambda: profiles.extend(ghfk_cost_profile(ledger) for _ in range(40))
                ),
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
                assert not worker.is_alive()
            report = sanitizer.build_report(source="inspect", workers=2)
        assert report.races == [], "\n".join(race.render() for race in report.races)
        assert ghfk_cost_profile(ledger) == {f"S{n:03d}": 1 for n in range(40)}
        assert all(set(profile.values()) <= {1} for profile in profiles)


class TestCli:
    def test_inspect_command(self, network, capsys):
        # The network fixture's ledger lives in its workdir; inspect a copy
        # via the ledger path the network was built on.
        path = network.peer.ledger.block_store._files.path.parent.parent
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
