"""The state-db shootout: backend x temporal-model matrix (machine-readable).

Races every registered state-db backend through the paper's Table-1
join on all three models, and writes
``BENCH_statedb.json`` so CI has a perf artifact to track:

* per-cell wall seconds, join rows + a SHA-256 over them (the identity
  gate: a backend may only change *speed*, never query results),
  ``blocks_deserialized``, GHFK calls and the kv-layer counters
  (reads, SSTable consultations, bloom negatives, checkpoints);
* a ``tqf_shootout`` section comparing every backend's TQF hot loop to
  the ``lsm`` baseline.

Two gates run as assertions:

* **identity** (always): for each model, every backend produces
  byte-identical rows;
* **speedup** (only at ``REPRO_SCALE >= 1``, where timing is meaningful):
  at least one alternative backend must beat ``lsm`` on the TQF
  GHFK-driven join.

Output path defaults to ``BENCH_statedb.json``; set
``REPRO_BENCH_STATEDB_OUT`` to redirect.  Run directly
(``python benchmarks/bench_ablation_statedb.py``) or through pytest.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Optional

from repro.bench.experiments import query_fabric_config, table1_windows, u_small
from repro.bench.runner import ExperimentRunner
from repro.common import metrics as metric_names
from repro.temporal.engine import TemporalQueryEngine
from repro.workload.datasets import ds1
from repro.workload.generator import generate

#: The matrix cells: one per registered state-db backend.
BACKENDS = ["memory", "lsm", "lsm-mmap", "btree"]
MODELS = ("tqf", "m1", "m2")
TIMING_ROUNDS = 3

#: Armed only at REPRO_SCALE >= 1: at least one backend must beat lsm on
#: the TQF GHFK hot loop by this factor.
REQUIRED_TQF_EDGE = 1.0

#: KV-layer counters sampled per cell (cumulative per network).
_KV_COUNTERS = {
    "kv_reads": metric_names.KV_READS,
    "kv_sstable_reads": metric_names.KV_SSTABLE_READS,
    "kv_bloom_negatives": metric_names.KV_BLOOM_NEGATIVES,
    "kv_checkpoints": metric_names.KV_CHECKPOINTS,
}


def _scale() -> float:
    try:
        return float(os.environ.get("REPRO_SCALE", "0.1"))
    except ValueError:
        return 0.1


def _dataset_scale() -> float:
    """Workload scale: ``REPRO_SCALE=0`` (the CI smoke convention) maps
    to the smallest workload that still exercises every backend seam."""
    return max(_scale(), 0.05)


def _rows_digest(rows: List[object]) -> str:
    """Order-sensitive fingerprint of the join rows (the identity gate)."""
    return hashlib.sha256(repr(rows).encode("utf-8")).hexdigest()


def _measure(facade: TemporalQueryEngine, model: str, window) -> Dict[str, object]:
    """Best-of-N timing for one (facade, model) on one window."""
    best: Optional[Dict[str, object]] = None
    for _ in range(TIMING_ROUNDS):
        result = facade.run_join(model, window)
        stats = result.stats
        sample: Dict[str, object] = {
            "seconds": stats.join_seconds,
            "ghfk_seconds": stats.ghfk_seconds,
            "rows": len(result.rows),
            "rows_sha256": _rows_digest(result.rows),
            "blocks_deserialized": stats.blocks_deserialized,
            "block_bytes_read": stats.block_bytes_read,
            "ghfk_calls": stats.ghfk_calls,
            "get_state_calls": stats.get_state_calls,
            "range_scan_calls": stats.range_scan_calls,
            "events": stats.events_fetched,
        }
        if best is None or sample["seconds"] < best["seconds"]:  # type: ignore[operator]
            best = sample
    assert best is not None
    return best


def run_bench(out_path: Optional[str] = None) -> Dict[str, object]:
    """Execute the full matrix and write the JSON report."""
    out_path = out_path or os.environ.get(
        "REPRO_BENCH_STATEDB_OUT", "BENCH_statedb.json"
    )
    config = ds1(scale=_dataset_scale())
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
            "scale": _scale(),
        },
        "results": [],
    }
    results: List[Dict[str, object]] = report["results"]  # type: ignore[assignment]

    for backend in BACKENDS:
        fabric_config = query_fabric_config(workers=1, statedb=backend)
        with ExperimentRunner.build(
            data, "plain", fabric_config=fabric_config
        ) as plain, ExperimentRunner.build(
            data, "m2", m2_u=u, fabric_config=fabric_config
        ) as m2:
            plain.ingest()
            plain.build_m1_index(u=u)
            m2.ingest()
            for model, runner in (("tqf", plain), ("m1", plain), ("m2", m2)):
                sample = _measure(runner.facade, model, window)
                sample.update(
                    {
                        "backend": backend,
                        "model": model,
                        "ledger_bytes": runner.network.ledger.block_store.total_bytes(),
                    }
                )
                sample.update(
                    {
                        field: runner.network.metrics.counter(counter)
                        for field, counter in _KV_COUNTERS.items()
                    }
                )
                results.append(sample)

    by_key = {(r["backend"], r["model"]): r for r in results}

    # Identity gate: a backend may never change what a query returns.
    for model in MODELS:
        digests = {r["rows_sha256"] for r in results if r["model"] == model}
        assert len(digests) == 1, (
            f"{model} rows differ across backends: {digests}"
        )

    baseline = by_key[("lsm", "tqf")]
    shootout = {
        backend: {
            "seconds": by_key[(backend, "tqf")]["seconds"],
            "vs_lsm": round(
                float(baseline["seconds"])
                / max(float(by_key[(backend, "tqf")]["seconds"]), 1e-9),
                2,
            ),
        }
        for backend in BACKENDS
    }
    challengers = [backend for backend in BACKENDS if backend != "lsm"]
    best = max(challengers, key=lambda label: shootout[label]["vs_lsm"])
    report["tqf_shootout"] = {
        "baseline": "lsm",
        "cells": shootout,
        "best_challenger": best,
        "best_vs_lsm": shootout[best]["vs_lsm"],
        "required_edge": REQUIRED_TQF_EDGE,
        "gate_armed": _scale() >= 1,
    }

    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2)
    return report


def test_statedb_shootout_bench():
    """Pytest entry point: run the matrix, emit the JSON, gate the edge.

    The identity gate ran inside :func:`run_bench`; the timing gate is
    armed only at full scale, where wall-clock differences rise above
    noise.
    """
    report = run_bench()
    shootout = report["tqf_shootout"]  # type: ignore[index]
    if shootout["gate_armed"]:
        assert shootout["best_vs_lsm"] >= REQUIRED_TQF_EDGE, (
            f"no backend beat lsm on the TQF hot loop "
            f"(best: {shootout['best_challenger']} at "
            f"{shootout['best_vs_lsm']}x); see BENCH_statedb.json"
        )


if __name__ == "__main__":
    bench_report = run_bench()
    print(json.dumps(bench_report["tqf_shootout"], indent=2))
