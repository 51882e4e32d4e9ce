"""Serial-vs-parallel query executor benchmark (machine-readable).

Runs the paper's Table-1 join query on all three models across the
executor/cache matrix -- workers {1, 8} x shared block cache {off, on}
-- and writes ``BENCH_query.json`` so the perf trajectory has data
points a CI artifact can track:

* per-config wall seconds, ``blocks_deserialized``, ``txs_decoded``
  (transaction segments decoded, per timing round), cache hit/miss
  counts, GHFK calls and a SHA-256 over the join rows (the byte-identity
  check across every config);
* a ``speedup`` section comparing TQF's serial+cache configuration to
  the serial cache-off baseline (the paper's measurement setup) -- like
  for like: the only difference between the two is the cache.

The output path defaults to ``BENCH_query.json`` in the working
directory; set ``REPRO_BENCH_QUERY_OUT`` to redirect it.

Run directly (``python benchmarks/bench_query_executor.py``) or through
pytest (``pytest benchmarks/bench_query_executor.py``); both produce the
same file and apply the same assertions: identical rows everywhere,
parallel deserializations never above serial, a cached block keeping
what it decoded (a cached config never decodes more segments than the
serial cache-off path, and none at all once the cache is warm), and
>= 2x TQF speedup for the shared cache over the cache-off path at
workers=1.  The workers=8 rows are measured and checked for identity but
gate nothing: on this substrate they lose to workers=1 in like-for-like
cells (DESIGN.md §5), so a gate on ``parallel-cache`` passed on the
cache alone.  The decode counts fail as counts: a cache that lost its
memo would otherwise only show as a near-miss on the wall-clock gate.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Optional

from repro.bench.experiments import query_fabric_config, table1_windows, u_small
from repro.bench.runner import ExperimentRunner
from repro.common import metrics as metric_names
from repro.workload.datasets import ds1
from repro.workload.generator import generate

#: Executor/cache matrix: (label, workers, cache_blocks).
CONFIGS = [
    ("serial-nocache", 1, 0),
    ("serial-cache", 1, 4_096),
    ("parallel-nocache", 8, 0),
    ("parallel-cache", 8, 4_096),
]
TIMING_ROUNDS = 3

#: TQF wall-clock gate: serial+cache must beat serial+nocache by this.
REQUIRED_TQF_SPEEDUP = 2.0


def _rows_digest(rows: List[object]) -> str:
    """Order-sensitive fingerprint of the join rows (byte-identity check)."""
    return hashlib.sha256(repr(rows).encode("utf-8")).hexdigest()


def _measure(runner: ExperimentRunner, model: str, window) -> Dict[str, object]:
    """Best-of-N timing for one (runner, model) on one window, plus the
    transaction segments each round decoded."""
    best: Optional[Dict[str, object]] = None
    metrics = runner.network.metrics
    decoded_per_round: List[int] = []
    for _ in range(TIMING_ROUNDS):
        decoded_before = metrics.counter(metric_names.TXS_DECODED)
        result = runner.facade.run_join(model, window)
        decoded_per_round.append(metrics.counter(metric_names.TXS_DECODED) - decoded_before)
        stats = result.stats
        sample: Dict[str, object] = {
            "seconds": stats.join_seconds,
            "rows": len(result.rows),
            "rows_sha256": _rows_digest(result.rows),
            "blocks_deserialized": stats.blocks_deserialized,
            "block_cache_hits": stats.block_cache_hits,
            "block_cache_misses": stats.block_cache_misses,
            "ghfk_calls": stats.ghfk_calls,
            "events": stats.events_fetched,
        }
        if best is None or sample["seconds"] < best["seconds"]:  # type: ignore[operator]
            best = sample
    assert best is not None
    best["txs_decoded"] = decoded_per_round
    return best


def run_bench(out_path: Optional[str] = None) -> Dict[str, object]:
    """Execute the full matrix and write the JSON report."""
    out_path = out_path or os.environ.get(
        "REPRO_BENCH_QUERY_OUT", "BENCH_query.json"
    )
    config = ds1()
    data = generate(config)
    u = u_small(config.t_max)
    window = table1_windows(config.t_max)[-1]  # TQF's worst case

    report: Dict[str, object] = {
        "workload": {
            "dataset": "ds1",
            "keys": config.key_count,
            "events": config.total_events,
            "t_max": config.t_max,
            "u": u,
            "window": str(window),
            "timing_rounds": TIMING_ROUNDS,
        },
        "results": [],
    }
    results: List[Dict[str, object]] = report["results"]  # type: ignore[assignment]

    for label, workers, cache_blocks in CONFIGS:
        fabric_config = query_fabric_config(
            workers=workers, cache_blocks=cache_blocks or None
        )
        with ExperimentRunner.build(
            data, "plain", fabric_config=fabric_config
        ) as plain, ExperimentRunner.build(
            data, "m2", m2_u=u, fabric_config=fabric_config
        ) as m2:
            plain.ingest()
            plain.build_m1_index(u=u)
            m2.ingest()
            for model, runner in (("tqf", plain), ("m1", plain), ("m2", m2)):
                sample = _measure(runner, model, window)
                sample.update(
                    {"config": label, "model": model,
                     "workers": workers, "cache_blocks": cache_blocks}
                )
                results.append(sample)

    by_key = {(r["config"], r["model"]): r for r in results}
    baseline = by_key[("serial-nocache", "tqf")]
    contender = by_key[("serial-cache", "tqf")]
    speedup = float(baseline["seconds"]) / max(float(contender["seconds"]), 1e-9)
    report["speedup"] = {
        "tqf": {
            "serial_nocache_seconds": baseline["seconds"],
            "serial_cache_seconds": contender["seconds"],
            "speedup": round(speedup, 2),
            "required": REQUIRED_TQF_SPEEDUP,
        }
    }

    # Invariants the executor guarantees, checked on every emitted report.
    for model in ("tqf", "m1", "m2"):
        digests = {r["rows_sha256"] for r in results if r["model"] == model}
        assert len(digests) == 1, f"{model} rows differ across configs: {digests}"
        serial_blocks = by_key[("serial-nocache", model)]["blocks_deserialized"]
        for label, _workers, _cache in CONFIGS:
            assert by_key[(label, model)]["blocks_deserialized"] <= serial_blocks, (
                f"{model}/{label} deserialized more blocks than serial cache-off"
            )
        serial_decoded = max(by_key[("serial-nocache", model)]["txs_decoded"])  # type: ignore[call-overload]
        for label, _workers, cache_blocks in CONFIGS:
            if not cache_blocks:
                continue
            decoded: List[int] = by_key[(label, model)]["txs_decoded"]  # type: ignore[assignment]
            assert max(decoded) <= serial_decoded, (
                f"{model}/{label} decoded more segments ({decoded}) than "
                f"serial cache-off ({serial_decoded})"
            )
            assert not any(decoded[1:]), (
                f"{model}/{label} decoded segments on a warm cache: {decoded}"
            )

    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2)
    return report


def test_query_executor_bench():
    """Pytest entry point: run the matrix, emit the JSON, gate the speedup."""
    report = run_bench()
    speedup = report["speedup"]["tqf"]["speedup"]  # type: ignore[index]
    assert speedup >= REQUIRED_TQF_SPEEDUP, (
        f"TQF serial+cache speedup {speedup}x is below the "
        f"{REQUIRED_TQF_SPEEDUP}x gate; see BENCH_query.json"
    )


if __name__ == "__main__":
    bench_report = run_bench()
    print(json.dumps(bench_report["speedup"], indent=2))
