"""Tests for Fabric's composite-key API (Create/Split/PartialScan)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.common.config import StateDbConfig
from repro.common.errors import ChaincodeError
from repro.fabric.chaincode import (
    create_composite_key,
    split_composite_key,
)
from repro.fabric.network import FabricNetwork
from repro.storage.kv import BACKENDS
from tests.helpers import fabric_config


class TestCreateSplit:
    def test_round_trip(self):
        key = create_composite_key("owner~asset", ["alice", "asset7"])
        assert split_composite_key(key) == ("owner~asset", ["alice", "asset7"])

    def test_no_attributes(self):
        key = create_composite_key("marker", [])
        assert split_composite_key(key) == ("marker", [])

    def test_leading_delimiter_keeps_namespace_separate(self):
        key = create_composite_key("T", ["a"])
        assert key.startswith("\x00")
        assert key < "A"  # sorts below every simple key

    def test_empty_parts_rejected(self):
        with pytest.raises(ChaincodeError):
            create_composite_key("", ["a"])
        with pytest.raises(ChaincodeError):
            create_composite_key("T", ["a", ""])

    def test_delimiter_in_part_rejected(self):
        with pytest.raises(ChaincodeError):
            create_composite_key("T", ["bad\x00part"])

    def test_split_rejects_simple_keys(self):
        with pytest.raises(ChaincodeError):
            split_composite_key("plain-key")


class _AssetChaincode:
    """Chaincode indexing assets by owner via composite keys."""

    name = "assets"

    def invoke(self, stub, fn, args):
        if fn == "register":
            owner, asset = args
            stub.put_state(asset, {"owner": owner})
            index_key = stub.create_composite_key("owner~asset", [owner, asset])
            stub.put_state(index_key, {})
            return asset
        if fn == "assets_of":
            (owner,) = args
            result = []
            for key, _ in stub.get_state_by_partial_composite_key(
                "owner~asset", [owner]
            ):
                _, attrs = stub.split_composite_key(key)
                result.append(attrs[1])
            return result
        raise ValueError(fn)


class TestPartialCompositeScan:
    @pytest.fixture
    def network(self, tmp_path):
        with FabricNetwork(tmp_path, config=fabric_config()) as net:
            net.install(_AssetChaincode())
            gateway = net.gateway("registrar")
            for owner, asset in [
                ("alice", "asset1"),
                ("bob", "asset2"),
                ("alice", "asset3"),
                ("bobby", "asset4"),  # prefix-adjacent owner name
            ]:
                gateway.submit_transaction("assets", "register", [owner, asset])
            gateway.flush()
            yield net

    def test_scan_by_owner(self, network):
        gateway = network.gateway("reader")
        assert gateway.evaluate_transaction("assets", "assets_of", ["alice"]) == [
            "asset1",
            "asset3",
        ]

    def test_owner_names_do_not_prefix_collide(self, network):
        """'bob' must not match 'bobby''s assets (delimiter isolation)."""
        gateway = network.gateway("reader")
        assert gateway.evaluate_transaction("assets", "assets_of", ["bob"]) == [
            "asset2"
        ]

    def test_unknown_owner_empty(self, network):
        gateway = network.gateway("reader")
        assert gateway.evaluate_transaction("assets", "assets_of", ["carol"]) == []

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_scan_includes_non_ascii_attributes(self, tmp_path, backend):
        """The scan's upper bound is Fabric's ``maxUnicodeRuneValue``: an
        attribute starting at or above U+007F is inside the prefix range."""
        config = dataclasses.replace(
            fabric_config(),
            # Two entries per memtable: under ``lsm`` the scan merges SSTables.
            state_db=StateDbConfig(backend=backend, memtable_limit=2),
        )
        assets = ["abc", "\x7f", "é", "日本"]
        with FabricNetwork(tmp_path, config=config) as net:
            net.install(_AssetChaincode())
            gateway = net.gateway("registrar")
            for asset in assets:
                gateway.submit_transaction("assets", "register", ["alice", asset])
            gateway.submit_transaction("assets", "register", ["alicf", "other"])
            gateway.flush()
            assert gateway.evaluate_transaction("assets", "assets_of", ["alice"]) == assets
