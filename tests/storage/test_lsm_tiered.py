"""Tests for the tiered compaction strategy."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.kv.lsm import LSMStore
from tests.storage.test_kv_properties import apply_ops, assert_equivalent, operations


@pytest.fixture
def store(tmp_path):
    with LSMStore(
        tmp_path / "db", memtable_limit=4, compaction_trigger=4, compaction="tiered"
    ) as store:
        yield store


class TestTieredCompaction:
    def test_strategy_validation(self, tmp_path):
        with pytest.raises(ValueError, match="compaction"):
            LSMStore(tmp_path / "db", compaction="leveled")

    def test_reads_survive_tiered_compaction(self, store):
        for i in range(60):
            store.put(f"k{i:03d}".encode(), f"v{i}".encode())
        for i in range(60):
            assert store.get(f"k{i:03d}".encode()) == f"v{i}".encode()

    def test_older_tables_survive(self, tmp_path):
        """Tiered compaction merges only the newest run; early tables
        remain on disk untouched."""
        store = LSMStore(
            tmp_path / "db", memtable_limit=2, compaction_trigger=4,
            compaction="tiered",
        )
        for i in range(40):
            store.put(f"k{i:03d}".encode(), b"v")
        # With full compaction this would collapse to one table.
        assert store.sstable_count > 1
        store.close()

    def test_tombstone_shadows_across_tiers(self, tmp_path):
        """A delete living in a newer (merged) tier must keep shadowing
        the old value in an unmerged older table."""
        store = LSMStore(
            tmp_path / "db", memtable_limit=2, compaction_trigger=4,
            compaction="tiered",
        )
        store.put(b"victim", b"old")
        store.put(b"pad0", b"x")  # flush 1 (victim in oldest table)
        store.delete(b"victim")
        store.put(b"pad1", b"x")  # flush 2
        for i in range(12):  # force at least one tiered compaction
            store.put(f"pad{i + 2}".encode(), b"x")
        assert store.get(b"victim") is None
        assert b"victim" not in dict(store.scan())
        store.close()

    def test_reopen_preserves_tier_precedence(self, tmp_path):
        store = LSMStore(
            tmp_path / "db", memtable_limit=2, compaction_trigger=4,
            compaction="tiered",
        )
        store.put(b"k", b"old")
        store.put(b"pad0", b"x")
        store.put(b"k", b"new")
        store.put(b"pad1", b"x")
        for i in range(12):
            store.put(f"pad{i + 2}".encode(), b"x")
        store.close()
        reopened = LSMStore(tmp_path / "db", compaction="tiered")
        assert reopened.get(b"k") == b"new"
        reopened.close()


@settings(max_examples=40)
@given(ops=operations)
def test_tiered_matches_model(tmp_path_factory, ops):
    path = tmp_path_factory.mktemp("tiered")
    store = LSMStore(
        path, memtable_limit=5, compaction_trigger=3, compaction="tiered"
    )
    model: dict = {}
    apply_ops(store, model, ops)
    assert_equivalent(store, model)
    store.close()


@settings(max_examples=25)
@given(ops=operations, split=st.integers(min_value=0, max_value=60))
def test_tiered_survives_reopen(tmp_path_factory, ops, split):
    path = tmp_path_factory.mktemp("tiered")
    model: dict = {}
    store = LSMStore(path, memtable_limit=4, compaction_trigger=3, compaction="tiered")
    apply_ops(store, model, ops[:split])
    store.close()
    store = LSMStore(path, memtable_limit=4, compaction_trigger=3, compaction="tiered")
    apply_ops(store, model, ops[split:])
    assert_equivalent(store, model)
    store.close()
