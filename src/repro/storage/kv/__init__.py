"""A from-scratch sorted key-value store: the state-db's two backends.

Both implement :class:`~repro.storage.kv.api.KVStore` and are opened by
name through :func:`open_kv_store`:

* ``lsm`` -- :class:`~repro.storage.kv.lsm.LSMStore`, file-backed,
  LevelDB-like (the paper's state-db substrate): writes go to a
  write-ahead log and a sorted memtable; full memtables are flushed to
  immutable SSTables; reads consult memtable then SSTables newest-first
  (Bloom filters skip tables that definitely lack the key); compaction
  merges SSTables under a manifest.
* ``memory`` -- :class:`~repro.storage.kv.memstore.MemStore`, an
  in-memory sorted map with the same semantics and no durability: the
  reference the conformance suite compares ``lsm`` against, and the
  default when the state-db is not the variable under test.
"""

from pathlib import Path
from typing import Any, Optional, Union

from repro.storage.kv.api import KVStore
from repro.storage.kv.lsm import LSMStore
from repro.storage.kv.memstore import MemStore

#: The state-db backend names :class:`~repro.common.config.StateDbConfig`
#: accepts.
BACKENDS = ("memory", "lsm")


def open_kv_store(
    backend: str, path: Optional[Union[str, Path]] = None, **options: Any
) -> KVStore:
    """Open a KV store by backend name (one of :data:`BACKENDS`).

    Args:
        backend: ``"memory"`` or ``"lsm"``.
        path: the store's directory; required by ``lsm``, ignored by
            ``memory``.
        **options: :class:`~repro.storage.kv.lsm.LSMStore` keyword
            arguments (``memtable_limit``, ``compaction_trigger``,
            ``durability``, ``metrics``, ``fs``);
            ``memory`` has nothing to configure and ignores them, so the
            ledger passes one option set whichever backend is configured.
    """
    if backend == "memory":
        return MemStore()
    if backend == "lsm":
        if path is None:
            raise ValueError("the 'lsm' backend requires a path")
        return LSMStore(path, **options)
    raise ValueError(
        f"unknown KV backend {backend!r}; available: {sorted(BACKENDS)}"
    )


__all__ = ["BACKENDS", "KVStore", "LSMStore", "MemStore", "open_kv_store"]
