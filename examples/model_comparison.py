#!/usr/bin/env python3
"""Model comparison: the paper's trade-off table on your machine.

Builds DS1 (scaled) three ways -- plain (TQF), plain+M1 index, and
M2-transformed -- then reports for an early, middle and late query window:
join time, GHFK calls, blocks deserialized; plus the per-model costs the
paper discusses: ingestion time, index construction time, state-db size
and chain storage.

Run:  python examples/model_comparison.py
"""

from __future__ import annotations

from repro.bench.experiments import table1_windows, u_small
from repro.bench.runner import ExperimentRunner
from repro.workload.datasets import ds1
from repro.workload.generator import generate


def describe(stats) -> str:
    return (
        f"{stats.join_seconds:6.2f}s  {stats.ghfk_calls:>5} GHFK  "
        f"{stats.blocks_deserialized:>6} blocks"
    )


def main() -> None:
    data = generate(ds1(scale=0.05, entity_scale=0.1))
    t_max = data.config.t_max
    u = u_small(t_max)
    windows = table1_windows(t_max)
    probe_windows = {"early": windows[0], "middle": windows[4], "late": windows[-1]}

    print(
        f"Dataset: DS1 scaled ({data.config.key_count} keys, "
        f"{len(data.events)} events, t_max={t_max}, u={u})\n"
    )

    with ExperimentRunner.build(data, "plain") as plain, ExperimentRunner.build(
        data, "m2", m2_u=u
    ) as m2:
        ingest_plain = plain.ingest()
        index_report = plain.build_m1_index(u=u)
        ingest_m2 = m2.ingest()

        print("Per-window query performance:")
        print(f"{'window':>8}  {'model':>5}  query s  GHFK calls / blocks")
        for label, window in probe_windows.items():
            for model, runner in (("tqf", plain), ("m1", plain), ("m2", m2)):
                stats = runner.run_join(model, window).stats
                print(f"{label:>8}  {model:>5}  {describe(stats)}")
            print()

        print("One-off costs and storage:")
        print(f"  plain ingestion : {ingest_plain.seconds:.2f}s "
              f"({ingest_plain.transactions} txs)")
        print(f"  M1 indexing     : {index_report.seconds:.2f}s "
              f"({index_report.indexes_written} bundles, "
              f"2 txs each + 1 meta tx)")
        print(f"  M2 ingestion    : {ingest_m2.seconds:.2f}s "
              f"({ingest_m2.transactions} txs; no separate index phase)")
        print(f"  plain state-db  : {plain.state_count()} states")
        print(f"  M2 state-db     : {m2.state_count()} states "
              f"(one per key x occupied interval -- Section VII-B)")
        plain_bytes = plain.network.ledger.block_store.total_bytes()
        m2_bytes = m2.network.ledger.block_store.total_bytes()
        print(f"  plain chain     : {plain_bytes:,} bytes (includes M1 index bundles)")
        print(f"  M2 chain        : {m2_bytes:,} bytes")


if __name__ == "__main__":
    main()
