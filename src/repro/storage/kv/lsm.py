"""The LevelDB-like LSM key-value store.

Write path: every write is a batch (``put`` is a batch of one, a delete
a ``(key, None)`` item): its WAL records are appended, then its entries
enter the memtable; when the memtable reaches its entry limit -- mid-batch
too -- it is flushed to a new immutable SSTable and the WAL is truncated.
Read path: memtable first, then SSTables newest-first, the key hashed
once for every table's Bloom filter.  Range scans merge all sources with
newest-wins semantics and tombstone suppression; a table
with nothing in range costs two bisects and never enters the merge, and a
range only one source has entries in is read straight off that source, no
heap.  A keys-only scan (:meth:`LSMStore.scan_keys`) reads the same
sources' key slices and merges them without a pair per key.  When the
number of SSTables reaches ``compaction_trigger``, a full compaction
merges them into one table and drops dead entries.

On reopen, surviving WAL records are replayed into a fresh memtable, so a
process crash between flushes loses no acknowledged writes.  Crash
recovery also sweeps leftover ``.tmp`` table files (a crash mid-flush)
-- the atomic rename in :func:`~repro.storage.kv.sstable.write_sstable`
guarantees they were never visible as live tables.

The live table set is recorded in a ``MANIFEST.json`` sibling (written
via the same staged-rename discipline) after every table-set change.  On
open, the manifest is authoritative: listed tables load, ``.sst`` files
*not* listed are deleted as strays.  That matters because compaction
does not unlink its victims inline -- a scan held across the compaction
may still hold a snapshot that references them, so victims are retired via a GC finalizer
that deletes the file only once the last reader reference drains.
Readers hold a table's verified bytes in memory and never reopen its
file, so this snapshot-lifetime guarantee is about file lifetime only: a
table file stays on disk at least as long as any snapshot that lists it,
and no read depends on that.  If the process dies before a finalizer
runs, the orphaned victim would resurrect deleted keys on a glob-based
reopen; the manifest makes it a stray instead.  A table the open cannot
vouch for -- a listed one that is missing or fails its CRC, a corrupt
stray, every table when the manifest is missing or unreadable -- is set
aside into ``quarantine/`` and named in :attr:`LSMStore.tables_set_aside`;
the store serves what loaded, and its owner rebuilds the rest (the ledger
replays the chain).  An open that loads exactly the tables its manifest
lists rewrites nothing.
"""

from __future__ import annotations

import heapq
import json
import weakref
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.common import metrics as metric_names
from repro.common.errors import FaultInjectionError, SSTableError
from repro.common.metrics import NULL_REGISTRY, MetricsRegistry
from repro.faults.crashpoints import LSM_POST_SSTABLE, LSM_PRE_SSTABLE, crash_point
from repro.faults.fs import REAL_FS, FileSystem
from repro.storage.kv.api import BatchItem, KVStore
from repro.storage.kv.bloom import key_hashes
from repro.storage.kv.memtable import ABSENT, Memtable
from repro.storage.kv.sstable import TMP_SUFFIX, SSTableReader, write_sstable
from repro.storage.kv.wal import WriteAheadLog, replay

#: One source's ``(key, value-or-tombstone-None)`` stream, in key order.
_Entries = Iterator[Tuple[bytes, Optional[bytes]]]

_SST_PREFIX = "sst-"
_SST_SUFFIX = ".sst"
_WAL_NAME = "wal.log"
_MANIFEST_NAME = "MANIFEST.json"


def _unlink_retired(fs: FileSystem, path: Path, pending: Set[Path]) -> None:
    """Finalizer for a compacted-away SSTable reader: delete the file,
    through the store's filesystem, now that no reader snapshot can
    reference it.  Module-level (not a bound method) so the finalizer does
    not keep the store alive.  A filesystem killed by a simulated crash
    stands for a process that is gone and runs no finalizer: the file
    stays, as after a real crash, and reopen deletes it as a stray."""
    try:
        fs.remove(path)
    except FaultInjectionError:
        pass
    pending.discard(path)

#: Subdirectory set-aside tables are moved into.  Keeping the bytes
#: (rather than deleting) preserves forensic evidence and keeps the file
#: out of the live-table glob, so a reopen does not re-trip on it.
QUARANTINE_DIR = "quarantine"


class LSMStore(KVStore):
    """File-backed sorted KV store (memtable + WAL + SSTables).

    A :meth:`scan` reads a snapshot taken when it is called: the
    memtable's keys in range and the table tuple.  A scan may be held
    across writes, flushes and compactions: :meth:`flush` *rebinds* a
    fresh memtable instead of clearing the old one in place, and the
    table tuple is rebound, never mutated, so the snapshot stays
    internally consistent.
    """

    def __init__(
        self,
        path: str | Path,
        memtable_limit: int = 8192,
        compaction_trigger: int = 6,
        metrics: MetricsRegistry = NULL_REGISTRY,
        durability: str = "flush",
        fs: FileSystem = REAL_FS,
    ) -> None:
        if memtable_limit <= 0:
            raise ValueError(f"memtable_limit must be positive, got {memtable_limit}")
        if compaction_trigger <= 1:
            raise ValueError(
                f"compaction_trigger must be > 1, got {compaction_trigger}"
            )
        if durability not in ("flush", "fsync"):
            raise ValueError(
                f"durability must be 'flush' or 'fsync', got {durability!r}"
            )
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self._memtable_limit = memtable_limit
        self._compaction_trigger = compaction_trigger
        self._metrics = metrics
        self._fs = fs
        self._fsync = durability == "fsync"
        self._memtable = Memtable()
        self._tables: List[Tuple[int, SSTableReader]] = []  # newest last
        #: The readers of ``_tables``, as handed to every read: rebound
        #: with it (:meth:`_set_tables`), never mutated.
        self._readers: Tuple[SSTableReader, ...] = ()
        self._next_sequence = 0
        #: Paths of compacted-away tables whose deletion is deferred
        #: until their last reader reference drains (see
        #: :func:`_unlink_retired`); ``close`` force-deletes leftovers.
        self._pending_unlinks: Set[Path] = set()
        #: The tables this open set aside, by file name: what the store
        #: lost and its owner must rebuild.
        self.tables_set_aside = self._load_tables()
        # Replay before the log opens for append: a log that does not
        # replay leaves no handle behind.
        torn_at = self._replay_wal()
        self._wal = WriteAheadLog(
            self.path / _WAL_NAME, fsync=self._fsync, fs=fs, torn_at=torn_at
        )

    # -- startup ---------------------------------------------------------

    def _manifest_path(self) -> Path:
        return self.path / _MANIFEST_NAME

    def _read_manifest(self) -> Optional[List[int]]:
        """The manifest's live sequence list, or ``None`` when it is
        missing or unreadable (no table is vouched for)."""
        try:
            sequences = json.loads(self._manifest_path().read_text())["tables"]
            if not isinstance(sequences, list):
                return None
            return sorted(int(sequence) for sequence in sequences)
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def _write_manifest(self) -> None:
        """Record the current live table set, staged + atomically renamed
        (same durability discipline as the tables themselves)."""
        payload = json.dumps(
            {"tables": [sequence for sequence, _ in self._tables]}
        ).encode("ascii")
        manifest = self._manifest_path()
        tmp = manifest.with_name(manifest.name + TMP_SUFFIX)
        handle = self._fs.open(tmp, "wb")
        try:
            handle.write(payload)
            if self._fsync:
                self._fs.fsync(handle)
        finally:
            handle.close()
        self._fs.replace(tmp, manifest)

    def _load_tables(self) -> Tuple[str, ...]:
        """Load the tables the manifest vouches for; returns the names of
        those set aside."""
        for stray in self.path.glob(f"*{TMP_SUFFIX}"):
            # A crash mid-flush (or mid-manifest-write) left a staged file
            # that was never renamed live; drop it.
            self._fs.remove(stray)
        listed = self._read_manifest()
        known = {self._table_path(sequence).name for sequence in listed or ()}
        set_aside: List[str] = []
        for file in sorted(self.path.glob(f"{_SST_PREFIX}*{_SST_SUFFIX}")):
            # Not in the manifest: either a flushed table whose WAL was
            # never truncated (records replay from the WAL) or a
            # compaction victim whose deferred unlink never ran.  Loading
            # it would resurrect deleted keys.  A *healthy* stray is safe
            # to delete (its records live in the WAL or the merged
            # table); a corrupt one is evidence of a fault -- bit rot,
            # torn write -- and is set aside.  With no readable manifest
            # nothing vouches for any table: every one is set aside.
            if file.name in known:
                continue
            sequence = int(file.name[len(_SST_PREFIX) : -len(_SST_SUFFIX)])
            self._next_sequence = max(self._next_sequence, sequence + 1)
            if listed is not None and self._verified(file) is not None:
                self._fs.remove(file)
            else:
                self._quarantine_file(file, set_aside)
        tables: List[Tuple[int, SSTableReader]] = []
        for sequence in listed or ():
            file = self._table_path(sequence)
            self._next_sequence = max(self._next_sequence, sequence + 1)
            reader = self._verified(file)
            if reader is None:
                # Missing, or failing its CRC (bit rot, torn bytes, an
                # injected flip): never served from, never silently dropped.
                self._quarantine_file(file, set_aside)
            else:
                tables.append((sequence, reader))
        self._set_tables(tables)
        if listed != [sequence for sequence, _ in self._tables]:
            # A missing or unreadable manifest, or a listed table set
            # aside: record the set that loaded.  An open that found what
            # the manifest lists writes nothing.
            self._write_manifest()
        return tuple(set_aside)

    def _verified(self, file: Path) -> Optional[SSTableReader]:
        """``file``'s reader, or ``None`` when it is missing or fails its
        checks."""
        try:
            return SSTableReader(file, fs=self._fs)
        except SSTableError:
            return None

    def _set_tables(self, tables: List[Tuple[int, SSTableReader]]) -> None:
        self._tables = tables
        self._readers = tuple(reader for _, reader in tables)

    def _quarantine_file(self, file: Path, set_aside: List[str]) -> None:
        """Name ``file`` in ``set_aside`` and move it, if it exists, into
        :data:`QUARANTINE_DIR`."""
        if file.exists():
            quarantine = self.path / QUARANTINE_DIR
            quarantine.mkdir(exist_ok=True)
            self._fs.replace(file, quarantine / file.name)
        set_aside.append(file.name)

    def _replay_wal(self) -> Optional[int]:
        """Replay the WAL into the memtable; returns where its torn tail
        starts, if it has one."""
        records, torn_at = replay(self.path / _WAL_NAME)
        self._memtable.write([(key, value) for _, key, value in records])
        return torn_at

    # -- write path -------------------------------------------------------

    def write_batch(self, items: Iterable[BatchItem]) -> None:
        """Every item is checked before anything is written.  The batch is
        then written in *runs*: each run's WAL records go to the log in
        one file write, then into the memtable.  A run ends where a put
        per item would have flushed -- the memtable reaching its limit --
        and the flush happens there, so the WAL records, SSTables and
        manifest are byte for byte those of item-by-item writes."""
        self._check_open()
        batch = self._checked_batch(items)
        start = 0
        while start < len(batch):
            stop = self._memtable.fill_point(batch, start, self._memtable_limit)
            run = batch[start:stop]
            self._wal.append(run)
            self._metrics.increment_many(
                (metric_names.WAL_RECORDS, len(run)),
                (metric_names.KV_WRITES, len(run)),
            )
            self._memtable.write(run)
            if len(self._memtable) >= self._memtable_limit:
                self.flush()
            start = stop

    def flush(self) -> None:
        """Flush the memtable to a new SSTable and truncate the WAL.

        Ordering is the recovery invariant: the WAL is synced first (so a
        crash before the table lands replays everything), the table is
        atomically finalized, and only then is the WAL truncated.  A
        crash between the last two steps leaves the same records in both
        places -- replay is idempotent, so reopen converges.
        """
        if not len(self._memtable):
            return
        self._wal.sync()
        sequence = self._next_sequence
        self._next_sequence += 1
        table_path = self._table_path(sequence)
        crash_point(LSM_PRE_SSTABLE)
        write_sstable(
            table_path, self._memtable.entries_sorted(),
            fs=self._fs, fsync=self._fsync,
        )
        crash_point(LSM_POST_SSTABLE)
        self._set_tables(
            self._tables + [(sequence, SSTableReader(table_path, fs=self._fs))]
        )
        self._memtable = Memtable()
        # Manifest before WAL truncation: a crash in between leaves
        # the records both listed and replayable -- idempotent.  The
        # reverse order could truncate the WAL while the manifest
        # still omits the table, deleting it as a stray on reopen.
        self._write_manifest()
        self._wal.truncate()
        if len(self._tables) >= self._compaction_trigger:
            self._merge_tables()

    def _table_path(self, sequence: int) -> Path:
        return self.path / f"{_SST_PREFIX}{sequence:08d}{_SST_SUFFIX}"

    def _merge_tables(self) -> None:
        """Full compaction: merge every table into one and drop dead
        entries (no older table survives for a tombstone to shadow).

        Victim files are *not* deleted here: a scan held across the
        compaction may hold a pre-compaction snapshot that still consults
        them.  Each
        victim is instead scheduled for deletion when its reader object
        is garbage-collected -- i.e. once the table-list rebind below and
        every outstanding snapshot have dropped their references.  The
        manifest already omits the victims, so a crash before a deferred
        unlink runs leaves only a stray that reopen deletes.
        """
        self._metrics.increment(metric_names.KV_COMPACTIONS)
        retired = self._readers
        merged = self._merged_entries(retired, memtable_entries=None, start=None, end=None)
        sequence = self._next_sequence
        self._next_sequence += 1
        table_path = self._table_path(sequence)
        write_sstable(table_path, merged, fs=self._fs, fsync=self._fsync)
        self._set_tables([(sequence, SSTableReader(table_path, fs=self._fs))])
        self._write_manifest()
        for reader in retired:
            self._pending_unlinks.add(reader.path)
            weakref.finalize(reader, _unlink_retired, self._fs, reader.path,
                             self._pending_unlinks)

    # -- read path ---------------------------------------------------------

    def get(self, key: bytes) -> Optional[bytes]:
        """The value of ``key``, or ``None``, and one registry call.  Every
        read, one that raises included, ticks ``kv.reads`` once, together
        with the filters that said no and the tables searched."""
        self._check_open()
        if not key or key.__class__ is not bytes:
            self._check_key(key)
            key = bytes(key)
        skipped = searched = 0
        try:
            value = self._memtable.lookup(key)
            if value is not ABSENT:
                return value
            tables = self._readers
            if not tables:
                return None
            # One hash of the key serves every table's filter.
            h1, h2 = key_hashes(key)
            for reader in reversed(tables):  # newest first
                if not reader.bloom.may_contain_hashed(h1, h2):
                    # Definitely absent: the table is not searched (nor, if
                    # nothing has read it yet, decoded).
                    skipped += 1
                    continue
                searched += 1
                found, table_value = reader.lookup(key)
                if found:
                    return table_value
            return None
        finally:
            read = (metric_names.KV_READS, 1)
            if skipped and searched:
                counts: Tuple[Tuple[str, int], ...] = (
                    read,
                    (metric_names.KV_BLOOM_NEGATIVES, skipped),
                    (metric_names.KV_SSTABLE_READS, searched),
                )
            elif skipped:
                counts = (read, (metric_names.KV_BLOOM_NEGATIVES, skipped))
            elif searched:
                counts = (read, (metric_names.KV_SSTABLE_READS, searched))
            else:
                counts = (read,)
            self._metrics.increment_many(*counts)

    def scan(
        self, start: Optional[bytes] = None, end: Optional[bytes] = None
    ) -> Iterator[Tuple[bytes, bytes]]:
        """Not a generator: a closed store raises here, and what is
        scanned is the store as of this call: the memtable's keys in range
        are sliced and the table tuple taken here, so a key written while
        the scan is held does not reach it."""
        self._check_open()
        return self._merged_entries(
            self._readers, self._memtable.scan(start, end), start, end
        )

    def scan_keys(
        self, start: Optional[bytes] = None, end: Optional[bytes] = None
    ) -> List[bytes]:
        """The keys of :meth:`scan`, from each table's and the memtable's
        keys in range, sliced at this call.  One source in range is its
        slice minus tombstones; two or more merge newest-wins through one
        dict -- oldest first, each overwriting what it shadows."""
        self._check_open()
        windows: List[Tuple[List[bytes], List[Optional[bytes]]]] = []
        for reader in self._readers:
            window = reader.window(start, end)
            if window[0]:
                windows.append(window)
        memtable = self._memtable.window(start, end)
        if memtable[0]:
            windows.append(memtable)
        if len(windows) == 1:
            keys, values = windows[0]
            return [key for key, value in zip(keys, values) if value is not None]
        merged: Dict[bytes, Optional[bytes]] = {}
        for keys, values in windows:
            merged.update(zip(keys, values))
        return sorted([key for key, value in merged.items() if value is not None])

    def _merged_entries(
        self,
        sources: Sequence[SSTableReader],
        memtable_entries: Optional[_Entries],
        start: Optional[bytes],
        end: Optional[bytes],
    ) -> Iterator[Tuple[bytes, bytes]]:
        """K-way merge with newest-wins on duplicate keys; a key whose
        newest entry is a tombstone is dropped.

        Source priority: memtable beats any SSTable; later SSTables beat
        earlier ones.  The heap orders by ``(key, -priority)`` so for equal
        keys the newest source surfaces first and older duplicates are
        skipped.

        A table is asked for its entries in ``[start, end)`` first -- two
        bisects and a slice -- and one with none contributes no iterator.
        A lone source with entries in range -- the steady state after a
        flush or compaction, or a range one table covers alone -- is
        yielded as it comes, minus tombstones: nothing to merge.
        """
        iterators: List[_Entries] = []
        for reader in sources:
            keys, values = reader.window(start, end)
            if keys:
                iterators.append(zip(keys, values))
        if memtable_entries is not None:
            iterators.append(memtable_entries)

        # One head per source with anything in range (priority = position);
        # the rest of each source is pulled lazily.
        heap: List[Tuple[bytes, int, Optional[bytes], _Entries]] = []
        for priority, iterator in enumerate(iterators):
            for key, value in iterator:
                heap.append((key, -priority, value, iterator))
                break
        if len(heap) == 1:
            key, _, value, iterator = heap[0]
            if value is not None:
                yield key, value
            for key, value in iterator:
                if value is not None:
                    yield key, value
            return
        heapq.heapify(heap)
        last_key: Optional[bytes] = None
        while heap:
            key, neg_priority, value, iterator = heap[0]
            for next_key, next_value in iterator:
                heapq.heapreplace(heap, (next_key, neg_priority, next_value, iterator))
                break
            else:
                heapq.heappop(heap)
            if key == last_key:
                continue  # older duplicate, already emitted newest
            last_key = key
            if value is None:
                continue
            yield key, value

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self.flush()
        self._wal.close()
        self._closed = True
        # Backstop for deferred compaction-victim deletion: any
        # finalizer that has not fired yet (a snapshot tuple kept a
        # reader alive, or a reference cycle delayed collection) is
        # forced now -- the store owns the directory and no new
        # readers can start after close.
        for retired in list(self._pending_unlinks):
            self._fs.remove(retired)
        self._pending_unlinks.clear()

    @property
    def sstable_count(self) -> int:
        """Number of live SSTables (exposed for tests and ablations)."""
        return len(self._tables)
