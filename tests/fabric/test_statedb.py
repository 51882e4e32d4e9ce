"""Tests for the versioned state database."""

from __future__ import annotations

import pytest

from repro.common import metrics as metric_names
from repro.common.codec import JsonCodec
from repro.common.errors import CodecError
from repro.common.metrics import MetricsRegistry
from repro.fabric.block import KVWrite
from repro.fabric.statedb import StateDB
from repro.storage.kv.lsm import LSMStore
from repro.storage.kv.memstore import MemStore
from tests.helpers import DecodeSpyCodec


@pytest.fixture(params=["memory", "lsm"])
def state_db(request, tmp_path, metrics):
    if request.param == "memory":
        store = MemStore()
    else:
        store = LSMStore(tmp_path / "db", memtable_limit=16)
    db = StateDB(store, metrics=metrics)
    yield db
    db.close()


class TestStateAccess:
    def test_absent_key(self, state_db):
        assert state_db.get_state("missing") is None

    def test_write_then_read(self, state_db):
        state_db.apply_write([(KVWrite("k", {"qty": 3}), (7, 2), None)])
        state = state_db.get_state("k")
        assert state.value == {"qty": 3}
        assert state.version == (7, 2)

    def test_overwrite_updates_version(self, state_db):
        state_db.apply_write([(KVWrite("k", "v1"), (1, 0), None)])
        state_db.apply_write([(KVWrite("k", "v2"), (2, 0), None)])
        state = state_db.get_state("k")
        assert state.value == "v2"
        assert state.version == (2, 0)

    def test_delete_removes_state(self, state_db):
        state_db.apply_write([(KVWrite("k", "v"), (1, 0), None)])
        state_db.apply_write([(KVWrite("k", None, is_delete=True), (2, 0), None)])
        assert state_db.get_state("k") is None

    def test_get_version_without_metrics(self, state_db, metrics):
        state_db.apply_write([(KVWrite("k", "v"), (4, 1), None)])
        before = metrics.snapshot().counter(metric_names.GET_STATE_CALLS)
        assert state_db.get_version("k") == (4, 1)
        assert metrics.snapshot().counter(metric_names.GET_STATE_CALLS) == before

    def test_empty_key_rejected(self, state_db):
        with pytest.raises(ValueError):
            state_db.get_state("")


class TestBatch:
    """``apply_write`` is one KV batch: writes of several versions, in order."""

    def test_batch_applies_in_order_across_versions(self, state_db):
        state_db.apply_write([(KVWrite("gone", 0), (1, 0), None)])
        state_db.apply_write([
            (KVWrite("k", "v1"), (2, 0), None),
            (KVWrite("gone", None, is_delete=True), (2, 0), None),
            (KVWrite("k", "v2"), (2, 1), None),
            (KVWrite("j", None), (2, 1), None),
        ])
        assert state_db.get_state("gone") is None
        assert (state_db.get_state("k").value, state_db.get_state("k").version) == ("v2", (2, 1))
        assert (state_db.get_state("j").value, state_db.get_state("j").version) == (None, (2, 1))

    @pytest.mark.parametrize("codec", [JsonCodec()], ids=["json"])
    def test_a_value_encoded_once_is_spliced_into_the_record(self, codec):
        """Handed in encoded or encoded here, the stored record is the bytes
        of encoding ``{"v": value, "ver": [block, tx]}`` whole."""
        value = {"qty": 3, "raw": b"\x00", "tags": ["a", None]}
        spliced, encoded_here = StateDB(MemStore(), codec=codec), StateDB(MemStore(), codec=codec)
        spliced.apply_write([(KVWrite("k", value), (7, 2), codec.encode(value))])
        encoded_here.apply_write([(KVWrite("k", value), (7, 2), None)])
        record = codec.encode({"v": value, "ver": [7, 2]})
        assert spliced._store.get(b"k") == encoded_here._store.get(b"k") == record


class TestRangeScan:
    def test_sorted_range(self, state_db):
        for key in ("c", "a", "b", "d"):
            state_db.apply_write([(KVWrite(key, key.upper()), (1, 0), None)])
        result = list(state_db.get_state_by_range("a", "d"))
        assert [key for key, _ in result] == ["a", "b", "c"]
        assert result[0][1].value == "A"

    def test_unbounded_scan_excludes_savepoint(self, state_db):
        state_db.apply_write([(KVWrite("k", "v"), (1, 0), None)])
        state_db.record_savepoint(1)
        keys = [key for key, _ in state_db.get_state_by_range("", "")]
        assert keys == ["k"]

    def test_composite_keys_sort_temporally(self, state_db):
        """Composite (k, interval-start) keys must scan in interval order."""
        for start in (10_000, 0, 2_000):
            key = f"ship-1\x00{start:012d}"
            state_db.apply_write([(KVWrite(key, start), (1, 0), None)])
        state_db.apply_write([(KVWrite("ship-2\x00" + "0" * 12, 0), (1, 0), None)])
        result = [
            state.value
            for _, state in state_db.get_state_by_range("ship-1\x00", "ship-1\x01")
        ]
        assert result == [0, 2_000, 10_000]


    def test_scan_racing_a_commit_loses_no_state_present_at_the_call(self, state_db):
        """A write of a smaller key landing mid-scan (a commit racing
        ``list_keys``) must not cost the scan a state that was there when
        it began.  The late key itself may or may not appear."""
        for key in ("b", "c", "d"):
            state_db.apply_write([(KVWrite(key, key), (1, 0), None)])
        scan = state_db.get_state_by_range("", "")
        assert next(scan)[0] == "b"
        state_db.apply_write([(KVWrite("a", "a"), (2, 0), None)])
        assert [key for key, _ in scan] == ["c", "d"]


class TestLazyValues:
    """A state's bytes are decoded when its value or version is read."""

    @pytest.fixture
    def spied(self):
        store, codec = MemStore(), DecodeSpyCodec()
        db = StateDB(store, codec=codec)
        for tx_num, key in enumerate(("a", "b", "c")):
            db.apply_write([(KVWrite(key, {"n": tx_num}), (3, tx_num), None)])
        return db, store, codec

    def test_key_only_range_scan_decodes_nothing(self, spied):
        db, _, codec = spied
        assert [key for key, _ in db.get_state_by_range("", "")] == ["a", "b", "c"]
        assert codec.decoded == []

    def test_first_read_decodes_once_and_equals_the_eager_decode(self, spied):
        db, store, codec = spied
        states = dict(db.get_state_by_range("a", "c"))
        eager = JsonCodec().decode(store.get(b"b"))
        state = states["b"]
        assert (state.value, state.version) == (eager["v"], tuple(eager["ver"]))
        assert (state.version, state.value) == ((3, 1), {"n": 1})
        assert len(codec.decoded) == 1  # of the two states scanned, one, once

    def test_corrupt_bytes_raise_at_the_read_not_at_the_scan(self, spied):
        db, store, _ = spied
        store.put(b"b", b"\xffnot a state record")
        states = dict(db.get_state_by_range("", ""))
        point = db.get_state("b")
        assert states["a"].value == {"n": 0}
        for state in (states["b"], point):
            with pytest.raises(CodecError):
                state.value
            with pytest.raises(CodecError):
                state.version


class TestSavepoint:
    def test_savepoint_round_trip(self, state_db):
        assert state_db.savepoint() is None
        state_db.record_savepoint(41)
        assert state_db.savepoint() == 41

    def test_state_count_excludes_savepoint(self, state_db):
        state_db.apply_write([(KVWrite("a", 1), (1, 0), None)])
        state_db.apply_write([(KVWrite("b", 2), (1, 1), None)])
        state_db.record_savepoint(1)
        assert state_db.state_count() == 2


class TestMetrics:
    def test_get_state_counted(self, state_db, metrics):
        state_db.get_state("k")
        assert metrics.snapshot().counter(metric_names.GET_STATE_CALLS) == 1

    def test_range_scan_counted(self, state_db, metrics):
        list(state_db.get_state_by_range("", ""))
        assert metrics.snapshot().counter(metric_names.RANGE_SCAN_CALLS) == 1
