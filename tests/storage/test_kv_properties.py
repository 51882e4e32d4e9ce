"""Property-based tests: every KV backend behaves like a sorted dict.

A random sequence of put/delete/flush operations is applied both to the
store under test and to a plain dict model; gets and ordered scans must
agree at every step, including after a close/reopen cycle for the LSM
backend (exercising WAL replay and SSTable reads together), and a
keys-only scan lists exactly the keys of the full scan.  Gets cover
every key an example ever touched -- deleted ones too -- and keys it never
wrote; keys and values reach the sizes whose lengths take a second varint
byte.  One SSTable on its own is held to a sorted-list model.
"""

from __future__ import annotations

import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.kv.lsm import LSMStore
from repro.storage.kv.memstore import MemStore
from repro.storage.kv.sstable import SSTableReader, write_sstable
from tests.helpers import table_rows

short_keys = st.binary(min_size=1, max_size=6)
# A key of 128+ bytes and a value of 16 KiB+ have multi-byte varint lengths
# in the WAL and in an SSTable entry.
keys = st.one_of(short_keys, short_keys.map(lambda key: key + b"/" * 127))
values = st.one_of(
    st.binary(max_size=12),
    st.integers(min_value=0, max_value=255).map(lambda byte: bytes([byte]) * 16_384),
)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("put"), keys, values),
        st.tuples(st.just("delete"), keys, st.just(b"")),
        st.tuples(st.just("flush"), st.just(b""), st.just(b"")),
    ),
    max_size=60,
)

#: Eight keys, so one key is written, deleted and flushed over and over.
few_keys = st.sampled_from([b"k%d" % n for n in range(8)])
few_key_operations = st.lists(
    st.one_of(
        st.tuples(st.just("put"), few_keys, st.binary(max_size=2)),
        st.tuples(st.just("delete"), few_keys, st.just(b"")),
        st.tuples(st.just("flush"), st.just(b""), st.just(b"")),
    ),
    max_size=60,
)


def apply_ops(store, model: dict, ops, touched: set) -> None:
    for op, key, value in ops:
        if op == "put":
            store.put(key, value)
            model[key] = value
            touched.add(key)
        elif op == "delete":
            store.write_batch([(key, None)])
            model.pop(key, None)
            touched.add(key)
        elif op == "flush" and hasattr(store, "flush"):
            store.flush()


def assert_equivalent(store, model: dict, touched: set) -> None:
    assert list(store.scan()) == sorted(model.items())
    # No generated key is 8 to 13 bytes long, so these were never written.
    never_written = [b"absent-0"] + [key[:6] + b"-absent" for key in touched]
    for key in [*touched, *never_written]:
        assert store.get(key) == model.get(key)


@settings(max_examples=60)
@given(ops=operations)
def test_memstore_matches_model(ops):
    store = MemStore()
    model: dict = {}
    touched: set = set()
    apply_ops(store, model, ops, touched)
    assert_equivalent(store, model, touched)


@settings(max_examples=40)
@given(ops=operations)
def test_lsm_matches_model(tmp_path_factory, ops):
    path = tmp_path_factory.mktemp("lsm")
    store = LSMStore(path, memtable_limit=7, compaction_trigger=3)
    model: dict = {}
    touched: set = set()
    apply_ops(store, model, ops, touched)
    assert_equivalent(store, model, touched)
    store.close()


@settings(max_examples=25)
@given(ops=operations, split=st.integers(min_value=0, max_value=60))
def test_lsm_survives_reopen(tmp_path_factory, ops, split):
    """Apply a prefix, reopen the store, apply the rest: still a sorted dict."""
    path = tmp_path_factory.mktemp("lsm")
    model: dict = {}
    touched: set = set()
    store = LSMStore(path, memtable_limit=5, compaction_trigger=3)
    apply_ops(store, model, ops[:split], touched)
    store.close()
    store = LSMStore(path, memtable_limit=5, compaction_trigger=3)
    apply_ops(store, model, ops[split:], touched)
    assert_equivalent(store, model, touched)
    store.close()


@settings(max_examples=30)
@given(
    ops=operations,
    start=st.one_of(st.none(), keys),
    end=st.one_of(st.none(), keys),
)
def test_lsm_range_scan_matches_model(tmp_path_factory, ops, start, end):
    path = tmp_path_factory.mktemp("lsm")
    store = LSMStore(path, memtable_limit=6, compaction_trigger=3)
    model: dict = {}
    apply_ops(store, model, ops, set())
    expected = sorted(
        (key, value)
        for key, value in model.items()
        if (start is None or key >= start) and (end is None or key < end)
    )
    assert list(store.scan(start, end)) == expected
    store.close()


@pytest.mark.parametrize("backend", ["memory", "lsm"])
def test_scan_keys_is_the_key_column_of_scan(backend):
    """Over puts, deletes and flushes -- three tables compact into one,
    so tombstones sit in tables under newer tables and the memtable --
    ``scan_keys(lo, hi)`` lists the keys ``scan(lo, hi)`` yields, for
    bounds on, between and around the written keys."""

    @settings(max_examples=40)
    @given(ops=few_key_operations, bounds=st.lists(st.tuples(st.one_of(st.none(), few_keys),
                                                             st.one_of(st.none(), few_keys))))
    def check(ops, bounds):
        with tempfile.TemporaryDirectory() as scratch:
            store = MemStore() if backend == "memory" else LSMStore(
                scratch, memtable_limit=6, compaction_trigger=3
            )
            apply_ops(store, {}, ops, set())
            for start, end in [(None, None), *bounds]:
                assert store.scan_keys(start, end) == [key for key, _ in store.scan(start, end)]
            store.close()

    check()


@settings(max_examples=40)
@given(entries=st.dictionaries(keys, st.one_of(st.none(), values), max_size=10))
def test_sstable_reader_matches_sorted_list_model(tmp_path_factory, entries):
    """``scan(start, end)`` and ``lookup`` of one table -- tombstones
    (``None``) included, the empty table too -- against a sorted list, for
    every pair of bounds before, on, just after and between its keys."""
    model = sorted(entries.items())
    path = tmp_path_factory.mktemp("sst") / "t.sst"
    assert write_sstable(path, iter(model)) == len(model)
    reader = SSTableReader(path)
    assert reader.entry_count == len(model)
    candidates = [b"\x00", b"\xff" * 140]
    for key in entries:
        candidates += [key, key + b"\x00", key[:-1] + b"\x00", key[:1]]
    for key in candidates:
        assert reader.lookup(key) == ((True, entries[key]) if key in entries else (False, None))
    for start in [None, *candidates]:
        for end in [None, *candidates]:
            assert table_rows(reader, start, end) == [
                (key, value)
                for key, value in model
                if (start is None or key >= start) and (end is None or key < end)
            ]
