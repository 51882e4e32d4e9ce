"""The bytes a committed ledger leaves on disk, pinned.

The commit path may change how it builds what it stores -- encode a
write's value once and splice it, hand the state-db one batch per block
-- but never *what* it stores.  A small DS1 ingest (plus a ``kv`` put and
delete, so the frame and the state-db both see a deletion) runs with an
LSM memtable small enough that flushes fall
inside a block's state writes (five of them here) and the tables
compact.  A SHA-256 over every file the ledger directory holds after a
clean close -- block files, block index, SSTables, manifest -- must
equal the digest measured before the batched commit path existed.  (A
clean close truncates the WAL; ``tests/storage/test_write_batch.py``
holds its bytes to the put-per-item path.)  The MSP secrets are
the one random input: they are fixed here, so signatures, hashes and
every stored byte are a function of the code alone.

A function of the code alone also means of no per-process state: the
last test builds the same ledgers in two interpreters with different
string-hash seeds, where anything stored in ``set`` or ``dict``-of-hash
order comes out differently.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import subprocess
import sys
from pathlib import Path

from repro.common import metrics as metric_names
from repro.common.config import FabricConfig, StateDbConfig
from repro.common.metrics import MetricsRegistry
from repro.fabric.network import FabricNetwork
from repro.temporal.chaincodes import SupplyChainChaincode
from repro.workload import datasets
from repro.workload.generator import generate
from repro.workload.ingest import ingest
from tests.helpers import KeyValueChaincode

WORKLOAD = datasets.ds1(scale=0.004, entity_scale=0.1, seed=11)

#: SHA-256 over the ledger directory, measured on the commit path that
#: encoded every write three times and put it alone.
DIGEST = "54f3e40ca0dda25286bdb20ee3a55c58caa545a096e980b672e16032cd3a97fd"


def directory_digest(root: Path) -> str:
    """SHA-256 over every file under ``root``: relative path, size, bytes."""
    hasher = hashlib.sha256()
    for file in sorted(path for path in root.rglob("*") if path.is_file()):
        data = file.read_bytes()
        hasher.update(f"{file.relative_to(root).as_posix()}\0{len(data)}\0".encode())
        hasher.update(data)
    return hasher.hexdigest()


def fixed_urandom():
    """An ``os.urandom`` stand-in that hands out the same MSP secrets in
    every process."""
    secrets = itertools.count()
    return lambda size: hashlib.sha256(b"msp-%d" % next(secrets)).digest()[:size]


def test_stored_bytes_match_the_pinned_digest(tmp_path, monkeypatch):
    monkeypatch.setattr("repro.fabric.identity.os.urandom", fixed_urandom())
    config = FabricConfig(
        state_db=StateDbConfig(backend="lsm", memtable_limit=37, compaction_trigger=3),
    )
    metrics = MetricsRegistry()
    network = FabricNetwork(tmp_path / "net", config=config, metrics=metrics)
    network.install(SupplyChainChaincode())
    network.install(KeyValueChaincode())
    ingest(network.gateway("ingestor"), generate(WORKLOAD).events,
           SupplyChainChaincode.name, strategy=WORKLOAD.ingestion)
    client = network.gateway("client")
    client.submit_transaction("kv", "put_many", [["a", 1], ["b", {"x": b"\x00"}]], timestamp=1)
    client.flush()
    client.submit_transaction("kv", "delete", ["a"], timestamp=2)
    client.flush()
    network.close()
    # Tables were flushed and compacted: SSTables and manifest are covered.
    assert metrics.snapshot().counter(metric_names.KV_COMPACTIONS) > 0
    assert directory_digest(tmp_path / "net") == DIGEST


#: Run in a child interpreter: build a plain ledger indexed by M1 and an
#: M2 ledger under ``argv[1]``, print each directory's digest.
HASH_SEED_CHILD = """
import sys
from pathlib import Path
import repro.fabric.identity as identity
from tests.helpers import build_m1_index, build_m2_network, build_plain_network, small_workload
from tests.test_stored_bytes import directory_digest, fixed_urandom
identity.os.urandom = fixed_urandom()
root, data = Path(sys.argv[1]), small_workload()
plain = build_plain_network(root / "plain", data)
build_m1_index(plain, 0, 1_000, 100)
plain.close()
build_m2_network(root / "m2", data, u=100).close()
print(directory_digest(root / "plain"), directory_digest(root / "m2"))
"""


def test_stored_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    repo = Path(__file__).resolve().parents[1]
    digests = {}
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join([str(repo / "src"), str(repo)]))
        child = subprocess.run(
            [sys.executable, "-c", HASH_SEED_CHILD, str(tmp_path / seed)],
            env=env, cwd=repo, capture_output=True, text=True, timeout=120,
        )
        assert child.returncode == 0, child.stderr
        digests[seed] = child.stdout.split()
        assert len(digests[seed]) == 2, child.stdout
    assert digests["1"] == digests["2"]
