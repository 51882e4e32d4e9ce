"""Command-line entry point regenerating the paper's tables.

Examples::

    python -m repro.cli table1 --dataset ds1
    python -m repro.cli table1 --dataset ds2 --scale 0.05
    python -m repro.cli table2
    python -m repro.cli table3
    python -m repro.cli table4
    python -m repro.cli all            # every table at the default scale

``--scale 1 --entity-scale 1`` reproduces the paper's full-size datasets
(slow: DS1 alone ingests one million events).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.bench import experiments, tables
from repro.common.errors import ConfigError
from repro.storage.kv import BACKENDS


def _add_scale_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help="event/timeline scale in (0, 1] (default 0.1; 1 = paper size)",
    )
    parser.add_argument(
        "--entity-scale",
        type=float,
        default=None,
        help="entity-count scale in (0, 1] (default 0.1; ds3 1)",
    )
    parser.add_argument(
        "--statedb",
        default=None,
        choices=sorted(BACKENDS),
        help="state-db backend: memory (in-memory reference) or lsm "
        "(durable LevelDB stand-in); default: REPRO_STATEDB or memory; "
        "the backend changes speed and durability, never query results",
    )


def _write_json(results: list, path: str) -> None:
    """Serialize experiment result dataclasses to a JSON file."""
    import dataclasses
    import json

    def jsonable(value):
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            return {
                field.name: jsonable(getattr(value, field.name))
                for field in dataclasses.fields(value)
            }
        if isinstance(value, dict):
            return {str(key): jsonable(item) for key, item in value.items()}
        if isinstance(value, (list, tuple)):
            return [jsonable(item) for item in value]
        return value

    with open(path, "w") as handle:
        json.dump([jsonable(result) for result in results], handle, indent=2)


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree (one subcommand per paper table)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the tables of 'Efficiently Processing "
        "Temporal Queries on Hyperledger Fabric' (ICDE 2018)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    table1 = subparsers.add_parser("table1", help="join performance: M1 vs TQF vs M2")
    table1.add_argument(
        "--dataset", choices=["ds1", "ds2", "ds3"], default="ds1"
    )
    _add_scale_args(table1)

    table2 = subparsers.add_parser("table2", help="M1 join time vs u")
    _add_scale_args(table2)

    table3 = subparsers.add_parser("table3", help="periodic index construction cost")
    table3.add_argument("--invocations", type=int, default=6)
    _add_scale_args(table3)

    table4 = subparsers.add_parser("table4", help="GetState-Base / GHFK-Base cost")
    table4.add_argument("--get-state-calls", type=int, default=None)
    table4.add_argument("--ghfk-calls", type=int, default=None)
    table4.add_argument(
        "--now-factor",
        type=float,
        default=1.02,
        help="probe clock as a multiple of t_max (see EXPERIMENTS.md)",
    )
    _add_scale_args(table4)

    everything = subparsers.add_parser("all", help="run every table")
    _add_scale_args(everything)

    for table in (table1, table2, table3, table4, everything):
        table.add_argument(
            "--json",
            metavar="PATH",
            default=None,
            help="additionally write the structured result as JSON to PATH",
        )

    verify = subparsers.add_parser(
        "verify",
        help="cross-check that TQF, M1 and M2 return identical join rows",
    )
    verify.add_argument("--seed", type=int, default=1234)
    _add_scale_args(verify)

    inspect = subparsers.add_parser(
        "inspect", help="summarize an existing ledger directory"
    )
    inspect.add_argument("path", help="ledger directory (FabricNetwork path)")

    doctor = subparsers.add_parser(
        "doctor",
        help="check a (possibly crashed) ledger directory for damage: "
        "WAL/SSTable checksums, hash chain, state replay, M1 indexes",
    )
    doctor.add_argument("path", help="ledger directory (FabricNetwork path)")
    doctor.add_argument(
        "--backend",
        choices=["auto", *BACKENDS],
        default="auto",
        help="state-db backend of the ledger (default: detect from files)",
    )

    return parser


def _run_table1(args: argparse.Namespace):
    result = experiments.run_table1(
        dataset=args.dataset,
        scale=args.scale,
        entity_scale=args.entity_scale,
        statedb=args.statedb,
    )
    return result, tables.render_table1(result)


def _run_table2(args: argparse.Namespace):
    result = experiments.run_table2(
        scale=args.scale,
        entity_scale=args.entity_scale,
        statedb=args.statedb,
    )
    return result, tables.render_table2(result)


def _run_table3(args: argparse.Namespace):
    result = experiments.run_table3(
        scale=args.scale,
        entity_scale=args.entity_scale,
        invocations=args.invocations,
        statedb=args.statedb,
    )
    return result, tables.render_table3(result)


def _run_table4(args: argparse.Namespace):
    result = experiments.run_table4(
        scale=args.scale,
        entity_scale=args.entity_scale,
        get_state_calls=args.get_state_calls,
        ghfk_calls=args.ghfk_calls,
        now_factor=args.now_factor,
        statedb=args.statedb,
    )
    return result, tables.render_table4(result)


def _run_verify(args: argparse.Namespace) -> str:
    """Run the cross-model equivalence check on a fresh random workload."""
    import dataclasses

    from repro.bench.experiments import query_fabric_config, table1_windows, u_small
    from repro.bench.runner import ExperimentRunner
    from repro.workload.datasets import ds1

    config = dataclasses.replace(
        ds1(scale=args.scale, entity_scale=args.entity_scale), seed=args.seed
    )
    fabric_config = query_fabric_config(statedb=args.statedb)
    u = u_small(config.t_max)
    lines = [f"verify: {config.key_count} keys, {config.total_events} events, seed={args.seed}"]
    with ExperimentRunner.build(config, "plain", fabric_config=fabric_config) as plain:
        plain.ingest()
        plain.build_m1_index(u=u)
        with ExperimentRunner.build(
            plain.data, "m2", m2_u=u, fabric_config=fabric_config
        ) as m2:
            m2.ingest()
            for window in table1_windows(config.t_max):
                rows_tqf = plain.run_join("tqf", window).rows
                rows_m1 = plain.run_join("m1", window).rows
                rows_m2 = m2.run_join("m2", window).rows
                status = "OK" if rows_tqf == rows_m1 == rows_m2 else "MISMATCH"
                lines.append(f"  {str(window):>16}: {len(rows_tqf):>5} rows  {status}")
                if status == "MISMATCH":
                    lines.append("  !! models disagree; see tests/temporal/test_equivalence.py")
                    return "\n".join(lines)
    lines.append("all models agree on every window")
    return "\n".join(lines)


def _run_inspect(args: argparse.Namespace) -> str:
    from repro.fabric.inspect import summarize_chain
    from repro.fabric.ledger import Ledger

    ledger = Ledger(args.path)
    try:
        return summarize_chain(ledger).render()
    finally:
        ledger.close()


def _run_doctor(args: argparse.Namespace) -> tuple[str, bool]:
    import dataclasses

    from repro.common.config import FabricConfig
    from repro.faults.doctor import detect_backend, run_doctor

    backend = args.backend
    if backend == "auto":
        backend = detect_backend(args.path)
    config = FabricConfig()
    config = dataclasses.replace(
        config, state_db=dataclasses.replace(config.state_db, backend=backend)
    )
    report = run_doctor(args.path, config=config)
    return report.render(), report.ok


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code (2 for a bad
    argument the parser cannot check, such as a scale outside (0, 1])."""
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except ConfigError as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 2


def _run(args: argparse.Namespace) -> int:
    outputs: List[str] = []
    results: List[object] = []

    def record(pair) -> None:
        result, rendered = pair
        results.append(result)
        outputs.append(rendered)

    if args.command == "table1":
        record(_run_table1(args))
    elif args.command == "table2":
        record(_run_table2(args))
    elif args.command == "table3":
        record(_run_table3(args))
    elif args.command == "table4":
        record(_run_table4(args))
    elif args.command == "verify":
        outputs.append(_run_verify(args))
    elif args.command == "inspect":
        if not os.path.isdir(args.path):
            # Ledger() would scaffold an empty ledger here.
            print(f"repro inspect: {args.path} is not a directory", file=sys.stderr)
            return 1
        outputs.append(_run_inspect(args))
    elif args.command == "doctor":
        rendered, healthy = _run_doctor(args)
        print(rendered)
        return 0 if healthy else 1
    elif args.command == "all":
        for dataset in ("ds1", "ds2", "ds3"):
            args.dataset = dataset
            record(_run_table1(args))
        record(_run_table2(args))
        args.invocations = 6
        record(_run_table3(args))
        args.get_state_calls = None
        args.ghfk_calls = None
        args.now_factor = 1.02
        record(_run_table4(args))
    if getattr(args, "json", None) and results:
        _write_json(results, args.json)
        outputs.append(f"(structured results written to {args.json})")
    print("\n\n".join(outputs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
