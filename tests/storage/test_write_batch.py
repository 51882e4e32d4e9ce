"""``write_batch(items)`` is the items applied one at a time.

Every KV write is a batch -- ``put`` and ``delete`` are batches of one --
and the commit path hands the state-db one batch per block.  The batch
must be invisible in what the store holds: the same ``get`` and ``scan``
answers on both backends, and on ``lsm`` the same bytes on disk -- WAL
records, live SSTables and manifest -- even when a memtable flush or a
compaction falls inside a batch.  A bad item anywhere in a batch raises
before anything is applied or logged.
"""

from __future__ import annotations

import json
import zlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common import metrics as metric_names
from repro.common.metrics import MetricsRegistry
from repro.storage.kv.api import OP_DELETE, OP_PUT
from repro.storage.kv.lsm import LSMStore
from repro.storage.kv.memstore import MemStore
from repro.storage.kv.wal import _HEADER, WriteAheadLog, _encode_payload, replay

# Few distinct keys, so batches repeat keys and overwrite earlier batches.
keys = st.sampled_from([b"a", b"b", b"c", b"d", b"e", b"f", b"g"])
values = st.one_of(st.none(), st.binary(max_size=6))
batches = st.lists(st.lists(st.tuples(keys, values), max_size=12), max_size=6)


def one_at_a_time(store, batch) -> None:
    for key, value in batch:
        if value is None:
            store.write_batch([(key, None)])
        else:
            store.put(key, value)


def contents(store):
    scanned = list(store.scan())
    gets = {key: store.get(key) for key in (b"a", b"b", b"c", b"d", b"e", b"f", b"g", b"z")}
    return scanned, gets


def stored_bytes(store: LSMStore):
    """The WAL as logged so far, the manifest and every table it lists.

    Compaction victims are unlinked when their last reader is collected,
    so only the live tables are compared."""
    store._wal.sync()
    manifest = (store.path / "MANIFEST.json").read_bytes()
    tables = [
        (store.path / f"sst-{sequence:08d}.sst").read_bytes()
        for sequence in json.loads(manifest)["tables"]
    ]
    return (store.path / "wal.log").read_bytes(), manifest, tables


def wal_at_each_flush(store: LSMStore):
    """The WAL's bytes as each flush starts: a flush inside a batch must
    find the records up to its write already logged, as a put per item
    leaves them."""
    seen = []
    flush = store.flush

    def logged_then_flush() -> None:
        store._wal.sync()
        seen.append((store.path / "wal.log").read_bytes())
        flush()

    store.flush = logged_then_flush  # type: ignore[method-assign]
    return seen


def lsm_pair(tmp_path, name):
    """Two LSM stores, each with its registry and its WAL-at-flush log,
    small enough to flush every three distinct keys and compact every
    second table."""
    made = []
    for side in ("batched", "single"):
        metrics = MetricsRegistry()
        store = LSMStore(
            tmp_path / name / side, memtable_limit=3, compaction_trigger=2, metrics=metrics
        )
        made.append((store, metrics, wal_at_each_flush(store)))
    return made


class TestLsm:
    @given(batches=batches)
    def test_batches_match_single_writes_byte_for_byte(self, tmp_path_factory, batches):
        tmp_path = tmp_path_factory.mktemp("batch")
        (batched, batched_metrics, batched_flushes), (single, single_metrics, single_flushes) = (
            lsm_pair(tmp_path, "run")
        )
        try:
            for batch in batches:
                batched.write_batch(batch)
                one_at_a_time(single, batch)
                assert contents(batched) == contents(single)
                assert stored_bytes(batched) == stored_bytes(single)
                assert batched_flushes == single_flushes
            for name in (
                metric_names.WAL_RECORDS,
                metric_names.KV_WRITES,
                metric_names.KV_COMPACTIONS,
            ):
                assert batched_metrics.snapshot().counter(name) == single_metrics.snapshot().counter(name)
        finally:
            batched.close()
            single.close()

    def test_a_batch_straddles_flushes_and_compactions(self, tmp_path):
        """Nine writes of seven keys at a limit of three: three flushes in
        one batch, the last two compacting -- at the writes a put per item
        flushes at."""
        (batched, batched_metrics, batched_flushes), (single, _, single_flushes) = (
            lsm_pair(tmp_path, "straddle")
        )
        batch = [(bytes([byte]), b"v") for byte in b"abcabdefg"]
        batched.write_batch(batch)
        one_at_a_time(single, batch)
        assert len(batched_flushes) == 3 and batched_flushes == single_flushes
        assert batched_metrics.snapshot().counter(metric_names.KV_COMPACTIONS) == 2
        assert batched.sstable_count == single.sstable_count == 1
        assert stored_bytes(batched) == stored_bytes(single)
        assert contents(batched) == contents(single)
        batched.close()
        single.close()

    def test_replayed_batch_reopens_to_the_same_state(self, tmp_path):
        store = LSMStore(tmp_path / "db", memtable_limit=100)
        store.write_batch([(b"k", b"1"), (b"j", b"2"), (b"k", None), (b"j", b"3")])
        # A kill: the WAL is closed, the memtable never flushed, so the
        # records live only in the WAL.
        store._wal.close()
        reopened = LSMStore(tmp_path / "db", memtable_limit=100)
        assert list(reopened.scan()) == [(b"j", b"3")]
        reopened.close()

    @pytest.mark.parametrize("position", [0, 2, 4])
    @pytest.mark.parametrize(
        "bad, error", [((b"", b"v"), ValueError), ((b"k", "text"), TypeError), (("k", b"v"), TypeError)]
    )
    def test_a_bad_item_raises_before_anything_is_logged(self, tmp_path, position, bad, error):
        store = LSMStore(tmp_path / "db", memtable_limit=2)
        store.put(b"old", b"1")
        before = stored_bytes(store), contents(store)
        batch = [(b"x", b"1"), (b"y", b"2"), (b"z", b"3"), (b"w", b"4")]
        batch.insert(position, bad)
        with pytest.raises(error):
            store.write_batch(batch)
        assert (stored_bytes(store), contents(store)) == before
        store.close()


class TestMemory:
    @given(batches=batches)
    def test_batches_match_single_writes(self, batches):
        batched, single = MemStore(), MemStore()
        for batch in batches:
            batched.write_batch(batch)
            one_at_a_time(single, batch)
            assert contents(batched) == contents(single)

    @pytest.mark.parametrize("bad", [(b"", b"v"), (b"k", "text"), (b"k", 1)])
    def test_a_bad_item_raises_before_anything_is_applied(self, bad):
        store = MemStore()
        store.put(b"old", b"1")
        with pytest.raises((TypeError, ValueError)):
            store.write_batch([(b"x", b"1"), bad, (b"old", None)])
        assert list(store.scan()) == [(b"old", b"1")]
        assert store.get(b"x") is None


class TestWalRecords:
    """A record whose key and value are shorter than 128 bytes is framed
    from a table of one-byte varints; every record is still the bytes of
    :func:`_encode_payload`, and :func:`replay` reads them back."""

    LENGTHS = [0, 1, 127, 128, 300]

    @staticmethod
    def framed(key, value):
        payload = _encode_payload(OP_DELETE if value is None else OP_PUT, key, value)
        return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload

    def test_records_are_the_encoded_payloads(self, tmp_path):
        items = []
        for key_length in self.LENGTHS[1:]:
            key = bytes([0x61 + key_length % 26]) * key_length
            items.append((key, None))
            for value_length in self.LENGTHS:
                items.append((key, bytes([value_length % 256]) * value_length))
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.append(items[:7])
        wal.append(items[7:])
        wal.close()
        assert (tmp_path / "wal.log").read_bytes() == b"".join(
            self.framed(key, value) for key, value in items
        )
        assert replay(tmp_path / "wal.log")[0] == [
            (OP_DELETE if value is None else OP_PUT, key, value) for key, value in items
        ]
        assert wal.record_count == len(items)


def test_bytes_like_items_are_stored_as_copies(tmp_path):
    """Only items that are exactly ``bytes`` pass unchanged; a
    ``bytearray`` is copied, so mutating it later changes nothing."""
    key, value = bytearray(b"k"), bytearray(b"v")
    for store in (MemStore(), LSMStore(tmp_path / "db")):
        store.write_batch([(key, value)])
        key[0], value[0] = ord("j"), ord("w")
        assert store.get(b"k") == b"v" and type(store.get(b"k")) is bytes
        assert list(store.scan()) == [(b"k", b"v")]
        key[0], value[0] = ord("k"), ord("v")
        store.close()
