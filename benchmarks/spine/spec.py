"""What the spine measures: workloads, end-to-end metrics, per-layer metrics.

This module is the single declaration the runner, the comparer, the
smoke test and ``BENCHMARK.json`` are all checked against.  It imports
nothing from ``repro``.

Every workload runs the *same* catalogue of timed operations (see
``harness.OPS``) on its own ledger shape, so every end-to-end metric is
measured -- never reported as zero -- on every workload.  What differs
between workloads is the data shape each layer's cost depends on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple


@dataclass(frozen=True)
class Scenario:
    """One workload: a dataset shape plus how its primary chain is built."""

    name: str
    why: str
    #: ``repro.workload.datasets`` factory name.
    dataset: str
    scale: float
    entity_scale: float
    #: Build the primary plain chain by the six Table III rounds
    #: (ingest a period, index that period) instead of ingest-all-then-index.
    periodic_index: bool = False
    #: ``StateDbConfig.memtable_limit``; ``None`` keeps the library default.
    memtable_limit: Optional[int] = None
    #: Which ledger ``ledger_bytes_per_event`` is taken from.
    bytes_ledger: str = "plain"
    #: GetState-Base calls / fully drained GHFK-Base iterators per batch
    #: (more where a call is cheap, so that a batch lasts >= 50 ms).
    get_state_calls: int = 1500
    ghfk_calls: int = 8


SCENARIOS: Tuple[Scenario, ...] = (
    Scenario(
        name="table1_ds1",
        why=(
            "Paper Table I on DS1: wide multi-event blocks, the read path "
            "decodes every transaction of a block to use one write"
        ),
        dataset="ds1",
        scale=0.012,
        entity_scale=0.1,
        ghfk_calls=16,
    ),
    Scenario(
        name="table1_ds3_se",
        why=(
            "Same sweep on DS3 single-event ingest: many narrow blocks, so "
            "per-block and per-transaction fixed costs dominate per-byte decode"
        ),
        dataset="ds3",
        scale=0.04,
        entity_scale=1.0,
    ),
    Scenario(
        name="index_ds1",
        why=(
            "Table III shape: few keys with deep histories on a chain grown by "
            "periodic M1 indexing, reads and index commits interleaved"
        ),
        dataset="ds1",
        scale=0.04,
        entity_scale=0.04,
        periodic_index=True,
    ),
    Scenario(
        name="m2_wide",
        why=(
            "Most keys and a state-db four times its memtable: per-write commit "
            "cost, and GetState-Base answered through bloom filters from four SSTables"
        ),
        dataset="ds1",
        scale=0.008,
        entity_scale=0.12,
        memtable_limit=224,
        bytes_ledger="m2",
        ghfk_calls=20,
    ),
)

SCENARIO_BY_NAME: Dict[str, Scenario] = {s.name: s for s in SCENARIOS}

#: Cut for ``--smoke``: every scenario shrinks to this dataset scale.
SMOKE_SCALE = 0.01


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    definition: str


END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25,
             "generate + build the plain ledger with its M1 index + build the M2 "
             "ledger, before the first timed operation (median of the set-ups)"),
    EndToEnd("tqf_sweep_s", "s", "lower", 0.25,
             "wall time of the nine Table I run_join('tqf', w) calls"),
    EndToEnd("m1_sweep_s", "s", "lower", 0.25, "same nine windows on model m1"),
    EndToEnd("m2_sweep_s", "s", "lower", 0.25,
             "same nine windows on model m2 (M2 ledger)"),
    EndToEnd("m1_wide_s", "s", "lower", 0.25,
             "the two Table II wide windows on the M1 index"),
    EndToEnd("ingest_events_per_s", "events/s", "higher", 0.25,
             "workload.ingest through a real gateway into a fresh plain ledger, "
             "final flush included"),
    EndToEnd("m2_ingest_events_per_s", "events/s", "higher", 0.25,
             "same through M2SupplyChainChaincode(u)"),
    EndToEnd("index_build_s", "s", "lower", 0.25,
             "Table III on a fresh ledger: sum of the six M1Indexer.run seconds"),
    EndToEnd("get_state_base_us", "us", "lower", 0.25,
             "batch seconds / GetState-Base calls, clock drawn per call from "
             "(t_max/2, 1.02 t_max]"),
    EndToEnd("ghfk_base_ms", "ms", "lower", 0.25,
             "batch seconds / fully drained GHFK-Base iterators at now = 1.02 t_max"),
    EndToEnd("reopen_s", "s", "lower", 0.25,
             "network.close() then FabricNetwork(path) of the M2 ledger"),
    EndToEnd("ledger_bytes_per_event", "bytes", "lower", 0.10,
             "block_store.total_bytes() of the workload's primary ledger / events"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10,
             "ru_maxrss of the measuring process at exit"),
)


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    layer: str
    #: Exact counts repeat bit-for-bit for one seed; any change is a regression.
    exact: bool
    #: Which end-to-end metric this should move.
    moves: str


def _layer(layer: str, moves: str, *rows: Tuple[str, str, str, bool]) -> Tuple[PerLayer, ...]:
    return tuple(PerLayer(n, u, b, layer, e, moves) for n, u, b, e in rows)


_SWEEPS = "tqf_sweep_s, m1_sweep_s, m2_sweep_s"
_INGEST = "ingest_events_per_s, m2_ingest_events_per_s"

PER_LAYER: Tuple[PerLayer, ...] = (
    *_layer("temporal.engine", "root of every *_sweep_s and m1_wide_s",
            ("engine.run_join_s", "s", "lower", False),
            ("engine.list_keys_s", "s", "lower", False),
            ("engine.tqf_query_ms_p50", "ms", "lower", False),
            ("engine.tqf_query_ms_p95", "ms", "lower", False),
            ("engine.m1_query_ms_p50", "ms", "lower", False),
            ("engine.m1_query_ms_p95", "ms", "lower", False),
            ("engine.m2_query_ms_p50", "ms", "lower", False),
            ("engine.m2_query_ms_p95", "ms", "lower", False)),
    *_layer("temporal.tqf / m1 / m2", "own model's sweep",
            ("tqf.fetch_events_self_s", "s", "lower", False),
            ("m1.fetch_events_self_s", "s", "lower", False),
            ("m2.fetch_events_self_s", "s", "lower", False),
            ("query.events_fetched", "count", "lower", True),
            ("query.history_entries_per_event", "ratio", "lower", False)),
    *_layer("temporal.join", "all sweeps; largest share of m1_sweep_s",
            ("join.temporal_join_s", "s", "lower", False),
            ("join.rows", "count", "higher", True)),
    *_layer("fabric.historydb", _SWEEPS + "; index_block -> " + _INGEST,
            ("historydb.ghfk_calls", "count", "lower", True),
            ("historydb.ghfk_results", "count", "lower", True),
            ("historydb.ghfk_iter_self_s", "s", "lower", False),
            ("historydb.index_block_s", "s", "lower", False)),
    *_layer("fabric.blockstore",
            "get_block -> tqf_sweep_s, index_build_s, reopen_s; add/sync -> " + _INGEST,
            ("blockstore.blocks_deserialized", "count", "lower", True),
            ("blockstore.block_bytes_read", "bytes", "lower", True),
            ("blockstore.get_block_self_s", "s", "lower", False),
            ("blockstore.add_block_self_s", "s", "lower", False),
            ("blockstore.sync_s", "s", "lower", False),
            ("blockstore.cache_hits", "count", "higher", False)),
    *_layer("storage.blockfile", "tqf_sweep_s (table1_ds3_se most: fixed cost per block)",
            ("blockfile.read_s", "s", "lower", False),
            ("blockfile.reads", "count", "lower", False),
            ("blockfile.append_s", "s", "lower", False),
            ("blockfile.bytes_appended", "bytes", "lower", True)),
    *_layer("common.codec",
            "decode -> sweeps, ghfk_base_ms, reopen_s, index_build_s; encode -> "
            + _INGEST + ", index_build_s; both -> ledger_bytes_per_event",
            ("codec.decode_s", "s", "lower", False),
            ("codec.decode_bytes", "bytes", "lower", False),
            ("codec.encode_s", "s", "lower", False),
            ("codec.encode_bytes", "bytes", "lower", False)),
    *_layer("fabric.block", "tqf_sweep_s (table1_ds1 more than table1_ds3_se)",
            ("block.from_dict_s", "s", "lower", False),
            ("block.to_dict_s", "s", "lower", False),
            ("block.txs_materialized", "count", "lower", False),
            ("block.writes_used_per_tx_materialized", "ratio", "higher", False)),
    *_layer("fabric.gateway / endorser / orderer",
            _INGEST + " (table1_ds3_se: per-transaction cost)",
            ("gateway.submit_self_s", "s", "lower", False),
            ("endorser.endorse_s", "s", "lower", False),
            ("endorser.endorse_calls", "count", "lower", False),
            ("orderer.cut_self_s", "s", "lower", False),
            ("orderer.blocks_cut", "count", "lower", True)),
    *_layer("fabric.validator", _INGEST + "; none on sweeps",
            ("validator.validate_block_s", "s", "lower", False),
            ("validator.txs_invalidated", "count", "lower", True)),
    *_layer("fabric.ledger", _INGEST + ", index_build_s",
            ("ledger.commit_block_s", "s", "lower", False),
            ("ledger.commit_block_ms_p50", "ms", "lower", False),
            ("ledger.commit_block_ms_p95", "ms", "lower", False),
            ("ledger.verify_data_hash_s", "s", "lower", False)),
    *_layer("fabric.statedb + storage.kv",
            "get_state_base_us, m2_ingest_events_per_s (m2_wide most)",
            ("statedb.get_state_s", "s", "lower", False),
            ("statedb.get_state_calls", "count", "lower", True),
            ("statedb.range_scan_s", "s", "lower", False),
            ("statedb.apply_write_s", "s", "lower", False),
            ("kv.reads", "count", "lower", False),
            ("kv.writes", "count", "lower", False),
            ("kv.wal_records", "count", "lower", False),
            ("kv.sstable_reads", "count", "lower", False),
            ("kv.bloom_negatives", "count", "higher", False),
            ("kv.sstable_reads_per_get", "ratio", "lower", False),
            ("kv.compactions", "count", "lower", False)),
    *_layer("temporal.m1 indexer / temporal.m2 base API",
            "index_build_s; get_state_base_us",
            ("m1_indexer.run_self_s", "s", "lower", False),
            ("m1_indexer.bundles_written", "count", "lower", True),
            ("m2_base.get_state_probes", "count", "lower", True),
            ("m2_base.probes_per_call", "ratio", "lower", False)),
    *_layer("trace itself", "-",
            ("trace.coverage", "ratio", "higher", False),
            ("trace.overhead_ratio", "ratio", "lower", False)),
)

PER_LAYER_BY_NAME = {m.name: m for m in PER_LAYER}
