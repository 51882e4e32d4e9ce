"""Property-based tests: every KV backend behaves like a sorted dict.

A random sequence of put/delete/flush operations is applied both to the
store under test and to a plain dict model; gets and ordered scans must
agree at every step, including after a close/reopen cycle for the LSM
backend (exercising WAL replay and SSTable reads together).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.kv.lsm import LSMStore
from repro.storage.kv.memstore import MemStore

keys = st.binary(min_size=1, max_size=6)
values = st.binary(max_size=12)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("put"), keys, values),
        st.tuples(st.just("delete"), keys, st.just(b"")),
        st.tuples(st.just("flush"), st.just(b""), st.just(b"")),
    ),
    max_size=60,
)


def apply_ops(store, model: dict, ops) -> None:
    for op, key, value in ops:
        if op == "put":
            store.put(key, value)
            model[key] = value
        elif op == "delete":
            store.delete(key)
            model.pop(key, None)
        elif op == "flush" and hasattr(store, "flush"):
            store.flush()


def assert_equivalent(store, model: dict) -> None:
    assert list(store.scan()) == sorted(model.items())
    for key in model:
        assert store.get(key) == model[key]


@settings(max_examples=60)
@given(ops=operations)
def test_memstore_matches_model(ops):
    store = MemStore()
    model: dict = {}
    apply_ops(store, model, ops)
    assert_equivalent(store, model)


@settings(max_examples=40)
@given(ops=operations)
def test_lsm_matches_model(tmp_path_factory, ops):
    path = tmp_path_factory.mktemp("lsm")
    store = LSMStore(path, memtable_limit=7, compaction_trigger=3)
    model: dict = {}
    apply_ops(store, model, ops)
    assert_equivalent(store, model)
    store.close()


@settings(max_examples=25)
@given(ops=operations, split=st.integers(min_value=0, max_value=60))
def test_lsm_survives_reopen(tmp_path_factory, ops, split):
    """Apply a prefix, reopen the store, apply the rest: still a sorted dict."""
    path = tmp_path_factory.mktemp("lsm")
    model: dict = {}
    store = LSMStore(path, memtable_limit=5, compaction_trigger=3)
    apply_ops(store, model, ops[:split])
    store.close()
    store = LSMStore(path, memtable_limit=5, compaction_trigger=3)
    apply_ops(store, model, ops[split:])
    assert_equivalent(store, model)
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
    apply_ops(store, model, ops)
    expected = sorted(
        (key, value)
        for key, value in model.items()
        if (start is None or key >= start) and (end is None or key < end)
    )
    assert list(store.scan(start, end)) == expected
    store.close()
