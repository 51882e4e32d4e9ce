"""Per-layer metrics derived from one traced round.

Times come from spans (:mod:`trace`), counts from the ``MetricsRegistry``
deltas the harness collects around the same timed regions, so every ratio
is measured where the work happens.  A seam that could not be installed
contributes zeros and is listed as missing by the runner.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Mapping, Sequence

from harness import Tally
from spec import PER_LAYER
from trace import RoundTotals


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile; 0.0 on no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def round_values(spans: RoundTotals, counters: Mapping[str, int]) -> Dict[str, float]:
    """Every per-layer metric except the trace's own, for one round."""
    get = spans.get
    count = lambda name: counters.get(name, 0)  # noqa: E731

    def root_ms(op: str, share: float) -> float:
        root = spans.roots_by_op.get(op)
        return percentile(root.durations, share) * 1e3 if root else 0.0

    events_fetched = sum(get(f"{m}.fetch_events").value for m in ("tqf", "m1", "m2"))
    ghfk_results = count("query.ghfk_results")
    txs_materialized = get("block.from_dict").value
    commits = get("ledger.commit_block").durations
    base_calls = get("m2_base.get_state_base")
    return {
        "engine.run_join_s": get("engine.run_join").total_s,
        "engine.list_keys_s": sum(get(f"{m}.list_keys").total_s for m in ("tqf", "m1", "m2")),
        "engine.tqf_query_ms_p50": root_ms("tqf_sweep", 0.50),
        "engine.tqf_query_ms_p95": root_ms("tqf_sweep", 0.95),
        "engine.m1_query_ms_p50": root_ms("m1_sweep", 0.50),
        "engine.m1_query_ms_p95": root_ms("m1_sweep", 0.95),
        "engine.m2_query_ms_p50": root_ms("m2_sweep", 0.50),
        "engine.m2_query_ms_p95": root_ms("m2_sweep", 0.95),
        "tqf.fetch_events_self_s": get("tqf.fetch_events").self_s,
        "m1.fetch_events_self_s": get("m1.fetch_events").self_s,
        "m2.fetch_events_self_s": get("m2.fetch_events").self_s,
        "query.events_fetched": events_fetched,
        "query.history_entries_per_event": _ratio(ghfk_results, events_fetched),
        "join.temporal_join_s": get("join.temporal_join").total_s,
        "join.rows": get("join.temporal_join").value,
        "historydb.ghfk_calls": count("query.ghfk_calls"),
        "historydb.ghfk_results": ghfk_results,
        "historydb.ghfk_iter_self_s": get("historydb.ghfk_iter").self_s,
        "historydb.index_block_s": get("historydb.index_block").total_s,
        "blockstore.blocks_deserialized": count("ledger.blocks_deserialized"),
        "blockstore.block_bytes_read": count("ledger.block_bytes_read"),
        "blockstore.get_block_self_s": get("blockstore.get_block").self_s,
        "blockstore.add_block_self_s": get("blockstore.add_block").self_s,
        "blockstore.sync_s": get("blockstore.sync").total_s,
        "blockstore.cache_hits": count("ledger.block_cache_hits"),
        "blockfile.read_s": get("blockfile.read").total_s,
        "blockfile.reads": get("blockfile.read").count,
        "blockfile.append_s": get("blockfile.append").total_s,
        "blockfile.bytes_appended": get("blockfile.append").value,
        "codec.decode_s": get("codec.decode").total_s,
        "codec.decode_bytes": get("codec.decode").value,
        "codec.encode_s": get("codec.encode").total_s,
        "codec.encode_bytes": get("codec.encode").value,
        "block.from_dict_s": get("block.from_dict").total_s,
        "block.to_dict_s": get("block.to_dict").total_s,
        "block.txs_materialized": txs_materialized,
        "block.writes_used_per_tx_materialized": _ratio(ghfk_results, txs_materialized),
        "gateway.submit_self_s": get("gateway.submit").self_s + get("gateway.flush").self_s,
        "endorser.endorse_s": get("endorser.endorse").total_s,
        "endorser.endorse_calls": get("endorser.endorse").count,
        "orderer.cut_self_s": get("orderer.cut").self_s,
        "orderer.blocks_cut": get("orderer.cut").value,
        "validator.validate_block_s": get("validator.validate_block").total_s,
        "validator.txs_invalidated": count("ledger.txs_invalidated"),
        "ledger.commit_block_s": get("ledger.commit_block").total_s,
        "ledger.commit_block_ms_p50": percentile(commits, 0.50) * 1e3,
        "ledger.commit_block_ms_p95": percentile(commits, 0.95) * 1e3,
        "ledger.verify_data_hash_s": get("ledger.verify_data_hash").total_s,
        "statedb.get_state_s": get("statedb.get_state").total_s,
        "statedb.get_state_calls": count("query.get_state_calls"),
        "statedb.range_scan_s": get("statedb.range_scan").total_s,
        "statedb.apply_write_s": get("statedb.apply_write").total_s,
        "kv.reads": count("kv.reads"),
        "kv.writes": count("kv.writes"),
        "kv.wal_records": count("kv.wal_records"),
        "kv.sstable_reads": count("kv.sstable_reads"),
        "kv.bloom_negatives": count("kv.bloom_negatives"),
        "kv.sstable_reads_per_get": _ratio(count("kv.sstable_reads"), count("kv.reads")),
        "kv.compactions": count("kv.compactions"),
        "m1_indexer.run_self_s": get("m1_indexer.run").self_s,
        "m1_indexer.bundles_written": get("m1_indexer.run").value,
        "m2_base.get_state_probes": base_calls.value,
        "m2_base.probes_per_call": _ratio(base_calls.value, base_calls.count),
        "trace.coverage": spans.coverage(),
    }


def per_layer_metrics(
    rounds: Sequence[RoundTotals],
    counters: Sequence[Mapping[str, int]],
    overhead_ratio: float,
    tally: Tally,
) -> Dict[str, Dict[str, float]]:
    """Fold the traced rounds: medians for measurements, one value for
    exact counts -- which must repeat bit-for-bit across rounds."""
    per_round: List[Dict[str, float]] = [
        round_values(spans, deltas) for spans, deltas in zip(rounds, counters)
    ]
    folded: Dict[str, Dict[str, float]] = {}
    for metric in PER_LAYER:
        if metric.name == "trace.overhead_ratio":
            values = [overhead_ratio]
        else:
            values = [values_of_round[metric.name] for values_of_round in per_round]
        if metric.exact:
            tally.check(
                len(set(values)) == 1,
                f"exact count {metric.name} differs between traced rounds: {values}",
            )
            value = values[0]
        else:
            value = statistics.median(values)
        folded[metric.name] = {"value": value, "n": len(values),
                               "min": min(values), "max": max(values)}
    return folded
