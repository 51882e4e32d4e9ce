"""Storage substrate: a from-scratch sorted KV store and ledger block files.

Fabric keeps its state database in LevelDB (or CouchDB) and its blocks in
append-only files on the peer's file system.  This subpackage provides both
substrates:

* :mod:`repro.storage.kv` -- the state-db's two backends behind one
  interface: a LevelDB-like LSM store (memtable, write-ahead log,
  SSTables, compaction) and the in-memory reference.
* :mod:`repro.storage.blockfile` / :mod:`repro.storage.blockindex` --
  append-only block files with size-based rollover and a block-location
  index, mirroring the peer's block storage.
"""

from repro.storage.blockfile import BlockFileManager
from repro.storage.blockindex import BlockIndex, BlockLocation
from repro.storage.kv import BACKENDS, KVStore, LSMStore, MemStore, open_kv_store

__all__ = [
    "BACKENDS",
    "BlockFileManager",
    "BlockIndex",
    "BlockLocation",
    "KVStore",
    "LSMStore",
    "MemStore",
    "open_kv_store",
]
