"""Tests for block storage and the history database (GHFK laziness)."""

from __future__ import annotations

import gc
import importlib.util
import io
import itertools
import json
import os
import shutil
import sys
from contextlib import closing
from pathlib import Path

import pytest

from repro.common import metrics as metric_names
from repro.common.codec import JsonCodec
from repro.common.config import (
    BlockCuttingConfig,
    BlockStoreConfig,
    FabricConfig,
    StateDbConfig,
)
from repro.common.errors import (
    BlockFileError,
    BlockNotFoundError,
    CodecError,
    FaultInjectionError,
)
from repro.common.metrics import MetricsRegistry
from repro.fabric.block import (
    GENESIS_PREVIOUS_HASH,
    VALID,
    Block,
    BlockHeader,
    RWSet,
    Transaction,
)
from repro.fabric import block as block_module
from repro.fabric import blockstore as blockstore_module
from repro.fabric.blockstore import BlockStore
from repro.fabric.historydb import HistoryDB
from repro.fabric.ledger import Ledger
from repro.fabric.network import FabricNetwork
from repro.faults import FaultPlan, FaultyFS
from repro.faults.fs import FileSystem
from repro.faults.doctor import detect_backend, run_doctor
from repro.storage import blockfile as blockfile_module
from repro.storage.blockfile import BlockFileManager
from repro.temporal.engine import TemporalQueryEngine
from repro.temporal.intervals import TimeInterval
from repro.workload.datasets import ds1
from repro.workload.generator import generate
from tests.helpers import (
    BINARY_GOLDEN_PAYLOAD,
    DecodeSpyCodec,
    KeyValueChaincode,
    audit,
    build_plain_network,
    per_transaction_frame,
)


def make_tx(tx_id: str, writes: dict, timestamp: int = 0) -> Transaction:
    rw_set = RWSet()
    for key, value in writes.items():
        rw_set.add_write(key, value)
    tx = Transaction(
        tx_id=tx_id, chaincode="cc", creator="c", timestamp=timestamp, rw_set=rw_set
    )
    tx.validation_code = VALID
    return tx


def chain_blocks(tx_groups) -> list[Block]:
    """Build a valid hash chain of blocks from groups of transactions."""
    blocks = []
    previous = GENESIS_PREVIOUS_HASH
    for number, txs in enumerate(tx_groups):
        header = BlockHeader(number, previous, Block.compute_data_hash(txs))
        blocks.append(Block(header, txs))
        previous = header.hash()
    return blocks


@pytest.fixture
def store(tmp_path, metrics):
    store = BlockStore(tmp_path, metrics=metrics)
    yield store
    store.close()


class TestBlockStore:
    def test_add_and_get(self, store):
        block = chain_blocks([[make_tx("t0", {"k": "v"})]])[0]
        store.add_block(block)
        restored = store.get_block(0)
        assert restored.number == 0
        assert restored.transactions[0].rw_set.writes["k"].value == "v"

    def test_height_tracks_blocks(self, store):
        assert store.height == 0
        for block in chain_blocks([[make_tx("t0", {"a": 1})], [make_tx("t1", {"b": 2})]]):
            store.add_block(block)
        assert store.height == 2

    def test_out_of_sequence_rejected(self, store):
        blocks = chain_blocks([[make_tx("t0", {"a": 1})], [make_tx("t1", {"b": 2})]])
        with pytest.raises(BlockNotFoundError):
            store.add_block(blocks[1])

    def test_get_beyond_height_rejected(self, store):
        with pytest.raises(BlockNotFoundError):
            store.get_block(0)

    def test_reads_are_counted(self, store, metrics):
        store.add_block(chain_blocks([[make_tx("t0", {"k": "v"})]])[0])
        before = metrics.snapshot().counter(metric_names.BLOCKS_DESERIALIZED)
        store.get_block(0)
        store.get_block(0)
        assert metrics.snapshot().counter(metric_names.BLOCKS_DESERIALIZED) == before + 2
        assert metrics.snapshot().counter(metric_names.BLOCK_BYTES_READ) > 0

    def test_iter_blocks_range(self, store):
        for block in chain_blocks([[make_tx(f"t{i}", {"k": i})] for i in range(4)]):
            store.add_block(block)
        numbers = [block.number for block in store.iter_blocks(1, 3)]
        assert numbers == [1, 2]

    def test_persistence_across_reopen(self, tmp_path):
        store = BlockStore(tmp_path)
        store.add_block(chain_blocks([[make_tx("t0", {"k": "v"})]])[0])
        store.close()
        reopened = BlockStore(tmp_path)
        assert reopened.height == 1
        assert reopened.get_block(0).transactions[0].tx_id == "t0"
        reopened.close()


class TestHistoryDB:
    def build(self, store, tx_groups):
        history = HistoryDB(metrics=store._metrics)
        for block in chain_blocks(tx_groups):
            store.add_block(block)
            history.index_block(block)
        return history

    def test_locations_oldest_first(self, store):
        history = self.build(
            store,
            [[make_tx("t0", {"k": "v0"})], [make_tx("t1", {"k": "v1"})]],
        )
        assert history.locations_for_key("k") == [(0, 0, 0), (1, 0, 0)]

    def test_a_location_names_the_write_by_its_sorted_key_position(self, store):
        """Writes are numbered in sorted key order, whatever order the
        chaincode made them in: the order the block payload lays them out."""
        history = self.build(
            store, [[make_tx("t0", {"c": 1, "a": 2}), make_tx("t1", {"b": 3, "a": 4, "c": 5})]]
        )
        assert history.locations_for_key("a") == [(0, 0, 0), (0, 1, 0)]
        assert history.locations_for_key("b") == [(0, 1, 1)]
        assert history.locations_for_key("c") == [(0, 0, 1), (0, 1, 2)]
        assert [entry.value for entry in history.get_history_for_key("c", store)] == [1, 5]

    def test_ghfk_yields_all_states_oldest_first(self, store):
        history = self.build(
            store,
            [
                [make_tx("t0", {"k": "v0"}, timestamp=1)],
                [make_tx("t1", {"k": "v1"}, timestamp=2)],
            ],
        )
        entries = list(history.get_history_for_key("k", store))
        assert [e.value for e in entries] == ["v0", "v1"]
        assert [e.timestamp for e in entries] == [1, 2]
        assert [e.block_num for e in entries] == [0, 1]

    def test_ghfk_absent_key_is_empty(self, store):
        history = self.build(store, [[make_tx("t0", {"k": "v"})]])
        assert list(history.get_history_for_key("nope", store)) == []

    def test_invalid_txs_not_indexed(self, store):
        tx = make_tx("t0", {"k": "v"})
        tx.validation_code = "MVCC_READ_CONFLICT"
        history = HistoryDB()
        block = chain_blocks([[tx]])[0]
        store.add_block(block)
        history.index_block(block)
        assert history.locations_for_key("k") == []

    def test_ghfk_laziness_early_stop_skips_blocks(self, store, metrics):
        """Abandoning the iterator must not deserialize remaining blocks."""
        history = self.build(
            store,
            [[make_tx(f"t{i}", {"k": f"v{i}"}, timestamp=i)] for i in range(10)],
        )
        before = metrics.snapshot().counter(metric_names.BLOCKS_DESERIALIZED)
        iterator = history.get_history_for_key("k", store)
        for entry in iterator:
            if entry.timestamp >= 2:
                break
        deserialized = metrics.snapshot().counter(metric_names.BLOCKS_DESERIALIZED) - before
        assert deserialized == 3  # blocks 0, 1, 2 only

    def test_ghfk_same_block_entries_use_cache(self, store, metrics):
        """Multiple writes of a key in one block cost one deserialization."""
        txs = [make_tx(f"t{i}", {"k": f"v{i}"}) for i in range(3)]
        history = self.build(store, [txs])
        before = metrics.snapshot().counter(metric_names.BLOCKS_DESERIALIZED)
        entries = list(history.get_history_for_key("k", store))
        assert len(entries) == 3
        assert metrics.snapshot().counter(metric_names.BLOCKS_DESERIALIZED) - before == 1

    def test_ghfk_call_counted(self, store, metrics):
        history = self.build(store, [[make_tx("t0", {"k": "v"})]])
        before = metrics.snapshot().counter(metric_names.GHFK_CALLS)
        list(history.get_history_for_key("k", store))
        assert metrics.snapshot().counter(metric_names.GHFK_CALLS) == before + 1

    def counts(self, metrics) -> tuple[int, int, int, int]:
        return tuple(metrics.snapshot().counter(name) for name in (
            metric_names.GHFK_CALLS, metric_names.GHFK_RESULTS,
            metric_names.TXS_DECODED, metric_names.BLOCKS_DESERIALIZED,
        ))

    def test_ghfk_on_a_key_never_written_is_one_call_and_nothing_else(
        self, store, metrics
    ):
        """An M1 / M2 ``(k, θ)`` key whose interval held no event: the call
        is counted, nothing is yielded and no block is read."""
        history = self.build(store, [[make_tx("t0", {"k": "v"})]])
        before = self.counts(metrics)
        assert list(history.get_history_for_key("never-written", store)) == []
        assert self.counts(metrics) == (before[0] + 1, *before[1:])

    def test_the_trace_seam_sees_a_ghfk_on_a_key_never_written(
        self, store, monkeypatch
    ):
        """The spine's ``historydb.ghfk_iter`` seam wraps the call and each
        ``__next__``; a key with no location still passes through it."""
        path = Path(__file__).resolve().parents[2] / "benchmarks" / "spine" / "trace.py"
        spec = importlib.util.spec_from_file_location("spine_trace", path)
        trace = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, "spine_trace", trace)
        spec.loader.exec_module(trace)
        history = self.build(store, [[make_tx("t0", {"k": "v"})]])
        recorder = trace.Recorder()
        installed = trace.install(recorder)
        try:
            assert "historydb.ghfk_iter" not in installed.missing
            recorder.begin_region("ghfk")
            assert list(history.get_history_for_key("never-written", store)) == []
            recorder.pause()
        finally:
            trace.uninstall(installed)
        # One span for the call, one for the ``__next__`` that finds the
        # iterator exhausted.
        assert recorder.end_round().get("historydb.ghfk_iter").count == 2

    def test_an_iterator_abandoned_after_one_result_counted_only_it(
        self, store, metrics
    ):
        history = self.build(
            store, [[make_tx(f"t{i}", {"k": f"v{i}"}, timestamp=i)] for i in range(3)]
        )
        before = self.counts(metrics)
        iterator = history.get_history_for_key("k", store)
        assert next(iterator).value == "v0"
        expected = tuple(b + 1 for b in before)
        assert self.counts(metrics) == expected
        del iterator
        assert self.counts(metrics) == expected

    def test_block_count_for_key(self, store):
        history = self.build(
            store,
            [
                [make_tx("t0", {"k": "a"}), make_tx("t1", {"k": "b"})],
                [make_tx("t2", {"other": 1})],
                [make_tx("t3", {"k": "c"})],
            ],
        )
        assert history.block_count_for_key("k") == 2

    def test_rebuild_matches_incremental(self, store):
        history = self.build(
            store,
            [[make_tx("t0", {"a": 1})], [make_tx("t1", {"a": 2, "b": 3})]],
        )
        rebuilt = HistoryDB()
        rebuilt.rebuild(store)
        assert rebuilt.locations_for_key("a") == history.locations_for_key("a")
        assert rebuilt.locations_for_key("b") == history.locations_for_key("b")
        assert rebuilt.key_count() == 2


class TestConcurrentGHFK:
    """GHFK iterators taking turns on one store, and held across commits."""

    def test_interleaved_scans_shared_store(self, tmp_path, metrics):
        """Eight GHFK scans of overlapping keys through one store, each
        advanced one result per turn; every scan sees the full, ordered
        history and pays for every block it touches."""
        keys = [f"k{i}" for i in range(4)]
        writes_per_key = 12
        groups = []
        for step in range(writes_per_key):
            groups.append(
                [make_tx(f"t{step}-{key}", {key: step}, timestamp=step)
                 for key in keys]
            )
        blocks = chain_blocks(groups)

        store = BlockStore(tmp_path, metrics=metrics)
        history = HistoryDB(metrics=metrics)
        try:
            for block in blocks:
                store.add_block(block)
                history.index_block(block)

            scans = [
                (history.get_history_for_key(keys[slot % len(keys)], store), [])
                for slot in range(8)
            ]
            for _ in range(writes_per_key):
                for iterator, entries in scans:
                    entries.append(next(iterator))
            for iterator, entries in scans:
                assert next(iterator, None) is None
                assert [e.value for e in entries] == list(range(writes_per_key))
                assert [e.timestamp for e in entries] == sorted(
                    e.timestamp for e in entries
                )

            # No cross-call reuse: each of the 8 scans reads all 12 blocks.
            assert metrics.snapshot().counter(metric_names.BLOCKS_DESERIALIZED) == 8 * len(blocks)
        finally:
            store.close()

    def test_scan_survives_concurrent_commits(self, tmp_path, metrics):
        """A commit appending locations while a scan is held must not
        corrupt it: each scan yields the history as of its call -- a
        clean, gap-free prefix of the final history -- however many
        commits land between its results."""
        store = BlockStore(tmp_path, metrics=metrics)
        history = HistoryDB(metrics=metrics)
        groups = [[make_tx(f"t{i}", {"k": i}, timestamp=i)] for i in range(40)]
        blocks = chain_blocks(groups)
        try:
            for block in blocks[:20]:
                store.add_block(block)
                history.index_block(block)

            scans = []  # (iterator, height at the call, values yielded)
            for number, block in enumerate(blocks[20:], start=20):
                if number % 5 == 0:
                    scans.append((history.get_history_for_key("k", store), number, []))
                for iterator, _, values in scans:
                    values.extend(entry.value for entry in itertools.islice(iterator, 2))
                store.add_block(block)
                history.index_block(block)
            for iterator, height, values in scans:
                values.extend(entry.value for entry in iterator)
                assert values == list(range(height))
            assert [height for _, height, _ in scans] == [20, 25, 30, 35]
        finally:
            store.close()


# --------------------------------------------------------------------------
# Framed payloads through the store: checks that run before / instead of decode
# --------------------------------------------------------------------------


class TestFramedReads:
    def test_flipped_payload_byte_fails_the_crc_before_any_decode(self, tmp_path):
        spy = DecodeSpyCodec()
        store = BlockStore(tmp_path, codec=spy)
        try:
            store.add_block(
                chain_blocks([[make_tx(f"t{i}", {"k": i}) for i in range(4)]])[0]
            )
            store.sync()
            blockfile = next((tmp_path / "chains").iterdir())
            damaged = bytearray(blockfile.read_bytes())
            damaged[len(damaged) // 2] ^= 0x01  # inside a transaction segment
            blockfile.write_bytes(bytes(damaged))
            with pytest.raises(BlockFileError, match="checksum mismatch"):
                store.get_block(0)
            assert spy.decoded == []
        finally:
            store.close()

    def test_pre_frame_chain_fails_loudly_naming_the_format(self, tmp_path):
        """A chain written in an older format -- one whole-block codec
        value per record, the per-transaction 0xF1 frame, or the current
        frame under the removed ``binary`` codec -- must not be read by
        guesswork."""
        block = chain_blocks([[make_tx("t0", {"k": "v"})]])[0]
        codec = JsonCodec()
        old_formats = {
            "whole-block": (codec.encode(block.to_dict()), "written before the framed format"),
            "per-transaction": (
                per_transaction_frame(block, codec), r"per-transaction frame \(0xF1"
            ),
            "binary-codec": (BINARY_GOLDEN_PAYLOAD, "8 segments need 333 bytes"),
        }
        for name, (payload, named) in old_formats.items():
            store = BlockStore(tmp_path / name / "ledger")
            store._index.append(store._files.append(payload))
            store.close()
            reopened = BlockStore(tmp_path / name / "ledger")
            try:
                assert reopened.height == 1  # records and CRCs are intact
                with pytest.raises(CodecError, match=named):
                    reopened.get_block(0)
            finally:
                reopened.close()
            with pytest.raises(CodecError, match=named):
                Ledger(tmp_path / name)


# --------------------------------------------------------------------------
# Reopen cost and descriptor lifetime
# --------------------------------------------------------------------------


class _CountingReads:
    """Stands in for the block-file module's ``open``: counts the bytes
    every read-mode handle returns."""

    def __init__(self) -> None:
        self.bytes_read = 0

    def __call__(self, path, mode):
        spy = self

        class Handle(io.FileIO):
            def read(self, size=-1):
                data = super().read(size)
                spy.bytes_read += len(data)
                return data

        assert mode == "rb"
        return Handle(path, "r")


def _open_fds() -> int:
    gc.collect()  # descriptors of unreachable objects (earlier tests') go first
    return len(os.listdir("/proc/self/fd"))


class TestReopen:
    def test_reopen_reads_the_last_record_not_the_whole_tail_file(
        self, tmp_path, monkeypatch
    ):
        store = BlockStore(tmp_path)
        blocks = chain_blocks([[make_tx(f"t{n}", {"k": n})] for n in range(12)])
        for block in blocks:
            store.add_block(block)
        store.close()
        blockfile = tmp_path / "chains" / "blockfile_000000"
        file_size = blockfile.stat().st_size
        last_record = 8 + len(blocks[-1].to_payload(JsonCodec()))
        assert file_size > 10 * last_record

        reads = _CountingReads()
        monkeypatch.setattr(blockfile_module, "open", reads, raising=False)
        reopened = BlockStore(tmp_path)
        monkeypatch.undo()
        try:
            assert reads.bytes_read == last_record  # file_size - last offset
            assert reopened.height == 12
            assert reopened.get_block(11) == blocks[11]
        finally:
            reopened.close()

    def test_tail_scan_from_an_offset_keeps_absolute_offsets_and_messages(
        self, tmp_path
    ):
        """Torn-tail and mid-chain semantics do not depend on where the
        scan starts."""
        store = BlockStore(tmp_path, max_file_bytes=800)
        for block in chain_blocks([[make_tx(f"t{n}", {"k": n})] for n in range(8)]):
            store.add_block(block)
        files = store._files
        everything = list(files.scan_records(0, 0))
        # Three records per file: 3 + 3 + 2.
        assert [location.file_num for location, _ in everything] == [
            0, 0, 0, 1, 1, 1, 2, 2,
        ]
        for skip in range(len(everything)):
            start = everything[skip][0]
            assert list(files.scan_records(start.file_num, start.offset)) == (
                everything[skip:]
            )
        store.close()
        # Damage the second record of the (sealed) first file: a scan
        # starting at it names its absolute offset.
        second = everything[1][0]
        assert second.file_num == 0 and second.offset > 0
        blockfile = tmp_path / "chains" / "blockfile_000000"
        damaged = bytearray(blockfile.read_bytes())
        damaged[second.offset + 8 + 4] ^= 0x01
        blockfile.write_bytes(bytes(damaged))
        files = BlockFileManager(tmp_path / "chains", max_file_bytes=800)
        try:
            with pytest.raises(
                BlockFileError,
                match=f"record checksum mismatch at blockfile_000000:{second.offset}",
            ):
                list(files.scan_records(0, second.offset))
            # Torn tail of the last file: a clean end, from any start.
            last = everything[-1][0]
            tail = tmp_path / "chains" / f"blockfile_{last.file_num:06d}"
            tail.write_bytes(tail.read_bytes()[:-3])
            assert list(files.scan_records(last.file_num, last.offset)) == []
            assert list(files.scan_records(last.file_num, 0)) == [
                entry for entry in everything[:-1] if entry[0].file_num == last.file_num
            ]
        finally:
            files.close()

    def test_statedb_files_of_a_removed_backend_are_ignored(self, tmp_path):
        """The state-db is derived data: a directory whose ``statedb/``
        holds only files of a backend that no longer exists opens under
        either remaining backend by replaying the chain."""

        def config(backend: str) -> FabricConfig:
            return FabricConfig(
                block_cutting=BlockCuttingConfig(max_message_count=2),
                state_db=StateDbConfig(backend=backend, memtable_limit=4),
            )

        network = FabricNetwork(tmp_path, config=config("lsm"))
        network.install(KeyValueChaincode())
        gateway = network.gateway("writer")
        for i in range(24):
            gateway.submit_transaction("kv", "put", [f"k{i % 9}", i], timestamp=i + 1)
        gateway.submit_transaction("kv", "delete", ["k3"], timestamp=30)
        gateway.flush()
        height = network.ledger.height
        fingerprint = network.ledger.state_fingerprint()
        network.close()

        statedb = tmp_path / "statedb"
        assert any(statedb.glob("sst-*.sst"))
        shutil.rmtree(statedb)
        statedb.mkdir()
        strays = {"btree.wal": b"\x00" * 40, "btree-checkpoint.sst": b"not a table"}
        for name, content in strays.items():
            (statedb / name).write_bytes(content)

        assert detect_backend(tmp_path) == "memory"
        for backend in ("memory", "lsm"):
            report = run_doctor(tmp_path, config=config(backend))
            assert f"[{backend} state-db] -> consistent" in report.render()
            assert report.height == height
            # Nothing the doctor counted as verified came from the strays.
            assert (report.wal_records, report.sstables_checked) == (0, 0)
            ledger = Ledger(tmp_path, config=config(backend))
            try:
                assert ledger.height == height
                assert ledger.state_fingerprint() == fingerprint
                ledger.verify_chain()
            finally:
                ledger.close()
        for name, content in strays.items():
            assert (statedb / name).read_bytes() == content


class TestReopenDecodes:
    """What reopening a ledger decodes: the savepoint decides whether a
    block is replayed into the state-db (decoded whole, its transactions
    built) or only walked for the history index (its segment list
    decoded, no transaction built).  Either way one decode per block."""

    @pytest.mark.parametrize("backend", ["lsm", "memory"])
    def test_reopen_decodes_each_block_once(self, tmp_path, monkeypatch, backend):
        config = FabricConfig(
            block_cutting=BlockCuttingConfig(max_message_count=3),
            state_db=StateDbConfig(backend=backend, memtable_limit=4),
        )
        network = FabricNetwork(tmp_path, config=config)
        network.install(KeyValueChaincode())
        gateway = network.gateway("writer")
        for i in range(20):
            gateway.submit_transaction("kv", "put", [f"k{i % 7}", i], timestamp=i + 1)
        gateway.submit_transaction("kv", "delete", ["k3"], timestamp=30)
        gateway.flush()
        history = network.ledger.history_db
        index = {key: history.locations_for_key(key) for key in history.keys()}
        height, txs = network.ledger.height, 21
        network.close()

        spy = DecodeSpyCodec()
        monkeypatch.setattr(blockstore_module, "JsonCodec", lambda: spy)
        built = []
        real = block_module._transaction_from
        monkeypatch.setattr(
            block_module, "_transaction_from", lambda parts: built.append(1) or real(parts)
        )
        metrics = MetricsRegistry()
        ledger = Ledger(tmp_path, config=config, metrics=metrics)
        try:
            assert len(spy.decoded) == height
            history = ledger.history_db
            assert {key: history.locations_for_key(key) for key in history.keys()} == index
            # ``lsm`` kept its savepoint: nothing replayed, no transaction
            # built or counted.  ``memory`` replays every block.
            replayed = txs if backend == "memory" else 0
            assert len(built) == replayed
            assert metrics.snapshot().counter(metric_names.TXS_DECODED) == replayed
        finally:
            ledger.close()


class _CountedWrites:
    """A handle whose writes :class:`RecordingFS` counts."""

    def __init__(self, handle, fs: "RecordingFS") -> None:
        self._handle = handle
        self._fs = fs

    def write(self, data: bytes) -> int:
        self._fs.bytes_written += len(data)
        return self._handle.write(data)

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self._handle.close()


class RecordingFS(FileSystem):
    """The real file system, recording every rename, every file opened to
    be truncated and every byte written."""

    def __init__(self) -> None:
        self.replaced: list = []
        self.truncated: list = []
        self.bytes_written = 0

    def open(self, path, mode):
        handle = super().open(path, mode)
        if "w" in mode:
            self.truncated.append(Path(path).name)
        return handle if mode == "rb" else _CountedWrites(handle, self)

    def replace(self, src, dst) -> None:
        self.replaced.append(Path(dst).name)
        super().replace(src, dst)

    def changes(self) -> tuple:
        return self.replaced, self.truncated, self.bytes_written


def _lsm_ledger(path: Path, blocks: int = 10) -> FabricConfig:
    """An ``lsm`` ledger of ``blocks`` blocks, two distinct-key puts each,
    its state-db spread over SSTables; returns its config."""
    config = FabricConfig(
        block_cutting=BlockCuttingConfig(max_message_count=2),
        state_db=StateDbConfig(backend="lsm", memtable_limit=2),
    )
    with closing(FabricNetwork(path, config=config)) as network:
        network.install(KeyValueChaincode())
        gateway = network.gateway("writer")
        for i in range(2 * blocks):
            gateway.submit_transaction("kv", "put", [f"k{i}", i], timestamp=i + 1)
        gateway.flush()
        assert network.ledger.height == blocks
    assert any((path / "statedb").glob("sst-*.sst"))
    return config


def _reopen(path: Path, config: FabricConfig) -> tuple:
    """What one open and close of the ledger at ``path`` wrote."""
    fs = RecordingFS()
    FabricNetwork(path, config=config, fs=fs).close()
    return fs.changes()


class TestReopenWritesNothing:
    """An open that recovers nothing writes nothing: the LSM manifest is
    rewritten only when the tables that loaded are not the ones it lists."""

    def test_an_unchanged_ledger_reopens_without_a_write(self, tmp_path):
        config = _lsm_ledger(tmp_path)
        assert len(list((tmp_path / "statedb").glob("sst-*.sst"))) >= 2
        for _ in range(3):
            assert _reopen(tmp_path, config) == ([], [], 0)

    def test_a_deleted_manifest_is_written_again(self, tmp_path):
        """No manifest vouches for the tables: the open sets every one
        aside and replays the chain, and what that writes is listed in a
        new manifest the next open finds complete."""
        config = _lsm_ledger(tmp_path)
        with closing(FabricNetwork(tmp_path, config=config)) as network:
            fingerprint = network.ledger.state_fingerprint()
        manifest = tmp_path / "statedb" / "MANIFEST.json"
        manifest.unlink()
        replaced, _, _ = _reopen(tmp_path, config)
        assert "MANIFEST.json" in replaced and manifest.exists()
        with closing(FabricNetwork(tmp_path, config=config)) as network:
            assert network.ledger.state_fingerprint() == fingerprint
            assert audit(network.ledger).ok
        assert _reopen(tmp_path, config) == ([], [], 0)

    def test_a_corrupt_table_gets_a_manifest_without_it(self, tmp_path):
        config = _lsm_ledger(tmp_path)
        with closing(FabricNetwork(tmp_path, config=config)) as network:
            fingerprint = network.ledger.state_fingerprint()
        victim = sorted((tmp_path / "statedb").glob("sst-*.sst"))[0]
        blob = bytearray(victim.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        victim.write_bytes(bytes(blob))
        replaced, _, _ = _reopen(tmp_path, config)
        assert "MANIFEST.json" in replaced
        listed = json.loads((tmp_path / "statedb" / "MANIFEST.json").read_text())["tables"]
        assert int(victim.name[len("sst-") : -len(".sst")]) not in listed
        assert (tmp_path / "statedb" / "quarantine" / victim.name).exists()
        with closing(FabricNetwork(tmp_path, config=config)) as network:
            assert network.ledger.state_fingerprint() == fingerprint
            network.ledger.verify_chain()


class TestRecoveredHead:
    """A reopen hashes only the last block's header: that hash is the
    head the orderer resumes from, so the next block must commit on it
    whether the reopen kept its savepoint or replayed from block 0."""

    @pytest.mark.parametrize("blocks", [1, 2, 30])
    @pytest.mark.parametrize("branch", ["savepoint", "quarantine"])
    def test_the_next_block_commits_on_the_recovered_head(self, tmp_path, blocks, branch):
        config = _lsm_ledger(tmp_path, blocks)
        if branch == "quarantine":
            for table in (tmp_path / "statedb").glob("sst-*.sst"):
                blob = bytearray(table.read_bytes())
                blob[len(blob) // 2] ^= 0xFF
                table.write_bytes(bytes(blob))
        metrics = MetricsRegistry()
        with closing(FabricNetwork(tmp_path, config=config, metrics=metrics)) as network:
            ledger = network.ledger
            quarantined = metrics.snapshot().counter(metric_names.STATE_TABLES_QUARANTINED)
            assert (quarantined > 0) == (branch == "quarantine")
            head = ledger.block_store.get_block(blocks - 1).header.hash()
            assert ledger.last_header_hash == head
            network.install(KeyValueChaincode())
            gateway = network.gateway("writer")
            gateway.submit_transaction("kv", "put", ["next", 1], timestamp=10_000)
            gateway.flush()
            assert ledger.height == blocks + 1
            assert ledger.block_store.get_block(blocks).header.previous_hash == head
            assert ledger.get_state("next") == 1
            assert ledger.get_state(f"k{2 * blocks - 1}") == 2 * blocks - 1
            ledger.verify_chain()


class TestDescriptorLifetime:
    """Block files keep one read descriptor each until close; nothing may
    outlive the network that opened it."""

    def _ingest(self, path) -> int:
        network = FabricNetwork(
            path,
            config=FabricConfig(
                block_cutting=BlockCuttingConfig(max_message_count=2),
                block_store=BlockStoreConfig(max_file_bytes=2048),
            ),
        )
        try:
            network.install(KeyValueChaincode())
            gateway = network.gateway("writer")
            for i in range(24):
                gateway.submit_transaction("kv", "put", [f"k{i % 3}", i], timestamp=i + 1)
            gateway.flush()
            return network.ledger.height
        finally:
            network.close()

    def test_open_read_close_leaks_no_fd(self, tmp_path):
        # Every cycle asserts the count is back at the baseline, so a
        # descriptor leaked per cycle fails the first one; five is plenty.
        height = self._ingest(tmp_path)
        config = FabricConfig(block_store=BlockStoreConfig(max_file_bytes=2048))
        baseline = _open_fds()
        for _ in range(5):
            network = FabricNetwork(tmp_path, config=config)
            try:
                store = network.ledger.block_store
                assert store._files._current_num > 1  # several block files
                for number in range(height):
                    assert store.get_block(number).number == number
                assert _open_fds() > baseline
            finally:
                network.close()
            assert _open_fds() == baseline

    def test_killed_network_leaks_no_descriptor_across_reopen(self, tmp_path):
        height = self._ingest(tmp_path)
        config = FabricConfig(block_store=BlockStoreConfig(max_file_bytes=2048))
        baseline = _open_fds()
        for _ in range(5):
            fs = FaultyFS(FaultPlan())
            network = FabricNetwork(tmp_path, config=config, fs=fs)
            for number in range(height):
                network.ledger.block_store.get_block(number)
            fs.kill()  # the process dies without close()
            assert _open_fds() == baseline  # a dead process holds no descriptors
            with pytest.raises(FaultInjectionError):
                network.ledger.block_store.get_block(0)
            del network
            reopened = FabricNetwork(tmp_path, config=config)
            try:
                assert reopened.ledger.height == height
                reopened.ledger.verify_chain()
            finally:
                reopened.close()
            assert _open_fds() == baseline


# --------------------------------------------------------------------------
# One seeded DS1 (multi-event) ledger, read back through TQF
# --------------------------------------------------------------------------

MAX_MESSAGE_COUNT = 10


@pytest.fixture(scope="module")
def ds1_reads(tmp_path_factory):
    """The counter deltas of TQF over three windows of one DS1 ledger."""
    config = ds1(scale=0.02, entity_scale=0.05, seed=11)
    data = generate(config)
    path = tmp_path_factory.mktemp("ds1")
    build_plain_network(path, data, strategy="me").close()
    third = config.t_max // 3
    windows = [TimeInterval(i * third, (i + 1) * third) for i in range(3)]
    network = FabricNetwork(
        path,
        config=FabricConfig(
            block_cutting=BlockCuttingConfig(max_message_count=MAX_MESSAGE_COUNT),
        ),
    )
    try:
        engine = TemporalQueryEngine(network.ledger, network.metrics)
        before = network.metrics.snapshot()
        for window in windows:
            engine.run_join("tqf", window)
        counters = network.metrics.snapshot().diff(before)
        network.ledger.verify_chain()
    finally:
        network.close()
    return counters


class TestReadPathShapes:
    def test_a_ghfk_result_decodes_one_transaction_not_the_block(self, ds1_reads):
        """The point of the framed payload, from the system's own counters:
        ``txs_decoded / ghfk_results`` is ~1 on a multi-event ledger whose
        blocks hold ``max_message_count`` transactions each."""
        counters = ds1_reads
        results = counters.counter(metric_names.GHFK_RESULTS)
        blocks = counters.counter(metric_names.BLOCKS_DESERIALIZED)
        decoded = counters.counter(metric_names.TXS_DECODED)
        # Every block touched is touched for at least one result, and a
        # result decodes at most its own transaction.
        assert blocks <= decoded <= results
        # The eager read path decoded ~max_message_count per block.
        assert decoded < blocks * MAX_MESSAGE_COUNT / 4
