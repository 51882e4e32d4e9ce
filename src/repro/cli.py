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
import sys
from typing import List, Optional

from repro.bench import experiments, tables
from repro.storage.kv import BACKENDS


def _add_scale_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help="event/timeline scale (default: REPRO_SCALE or 0.1; 1 = paper size)",
    )
    parser.add_argument(
        "--entity-scale",
        type=float,
        default=None,
        help="entity-count scale (default: REPRO_ENTITY_SCALE or 0.1)",
    )
    parser.add_argument(
        "--cache-blocks",
        type=int,
        default=None,
        help="shared decoded-block LRU capacity (default: 0 = off, the "
        "paper's cost model; see docs/temporal-models.md on accounting)",
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

    audit = subparsers.add_parser(
        "audit", help="cross-check a ledger's derived structures against its chain"
    )
    audit.add_argument("path", help="ledger directory (FabricNetwork path)")

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
    doctor.add_argument(
        "--manifest",
        default=None,
        help="path of the M1 indexer's run manifest, if one is in use",
    )

    lint = subparsers.add_parser(
        "lint",
        help="repro-lint: AST & dataflow analysis "
        "(chaincode determinism incl. interprocedural taint, M1 ingest "
        "invariants, lock discipline, seam-handle lifetimes, "
        "FileSystem-seam bypasses, fsync-before-rename, crash-point "
        "coverage, swallowed exceptions)",
        description="Run the repro-lint static analyzer.",
        epilog="exit codes: 0 = clean, 1 = new findings, "
        "2 = usage error (unknown rule, bad path)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    lint.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="output format (json is machine-readable, for CI annotation)",
    )
    lint.add_argument(
        "--select",
        default=None,
        metavar="RULES",
        help="comma-separated rule ids or prefixes to run, e.g. "
        "'DET002' or 'DET,TEMP' (default: all; an entry matching no "
        "rule is a usage error, exit 2)",
    )
    lint.add_argument(
        "--root",
        default=None,
        metavar="DIR",
        help="project root for relative paths and the tests/ cross-checks "
        "(default: nearest directory with a pyproject.toml)",
    )
    lint.add_argument(
        "--explain",
        default=None,
        metavar="RULE",
        help="print a rule's full documentation and exit",
    )
    lint.add_argument(
        "--call-graph",
        default=None,
        choices=["dot", "json"],
        metavar="{dot,json}",
        help="emit the project call graph (dot: class-level digraph for "
        "rendering; json: full function-level edges) instead of findings",
    )
    lint.add_argument(
        "--cache",
        default=".repro-lint-cache.json",
        metavar="PATH",
        help="mtime+SHA result cache so an unchanged tree replays the "
        "previous run (default: .repro-lint-cache.json)",
    )
    lint.add_argument(
        "--no-cache",
        action="store_true",
        help="always analyze from scratch, ignoring and not writing the cache",
    )

    san = subparsers.add_parser(
        "san",
        help="repro-san: dynamic happens-before/lockset race sanitizer "
        "(runs canned concurrency scenarios over the instrumented "
        "classes and reports data races and lock-order cycles)",
        description="Run the dynamic race sanitizer's scenario suite.",
        epilog="exit codes: 0 = race-free, 1 = races or lock-order "
        "cycles found, 2 = usage error (unknown scenario)",
    )
    san.add_argument(
        "--scenario",
        action="append",
        default=None,
        metavar="NAME",
        help="scenario to run (repeatable; default: all; see --list)",
    )
    san.add_argument(
        "--workers",
        type=int,
        default=8,
        help="threads per scenario (default: 8)",
    )
    san.add_argument(
        "--seed",
        type=int,
        default=None,
        help="base seed for fuzzed interleavings "
        "(default: REPRO_SEED or 0)",
    )
    san.add_argument(
        "--fuzz",
        type=int,
        default=0,
        metavar="ROUNDS",
        help="extra rounds with seeded schedule perturbation (default: 0)",
    )
    san.add_argument(
        "--json",
        default="race-report.json",
        metavar="PATH",
        help="where to write the race report (default: race-report.json)",
    )
    san.add_argument(
        "--list",
        action="store_true",
        help="list available scenarios and exit",
    )

    return parser


def _run_table1(args: argparse.Namespace):
    result = experiments.run_table1(
        dataset=args.dataset,
        scale=args.scale,
        entity_scale=args.entity_scale,
        cache_blocks=args.cache_blocks,
        statedb=args.statedb,
    )
    return result, tables.render_table1(result)


def _run_table2(args: argparse.Namespace):
    result = experiments.run_table2(
        scale=args.scale,
        entity_scale=args.entity_scale,
        cache_blocks=args.cache_blocks,
        statedb=args.statedb,
    )
    return result, tables.render_table2(result)


def _run_table3(args: argparse.Namespace):
    result = experiments.run_table3(
        scale=args.scale,
        entity_scale=args.entity_scale,
        invocations=args.invocations,
        cache_blocks=args.cache_blocks,
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
        cache_blocks=args.cache_blocks,
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
    fabric_config = query_fabric_config(args.cache_blocks, statedb=args.statedb)
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


def _run_audit(args: argparse.Namespace) -> str:
    from repro.fabric.audit import audit_ledger
    from repro.fabric.ledger import Ledger

    ledger = Ledger(args.path)
    try:
        return audit_ledger(ledger).render()
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
    report = run_doctor(args.path, config=config, manifest_path=args.manifest)
    return report.render(), report.ok


def _run_san(args: argparse.Namespace) -> int:
    """The ``san`` subcommand: run scenarios, write the race report."""
    from repro.common.config import repro_seed
    from repro.common.errors import ConfigError
    from repro.sanitizer.scenarios import SCENARIOS, run_scenarios

    if args.list:
        for name, scenario in sorted(SCENARIOS.items()):
            summary = (scenario.__doc__ or "").strip().splitlines()[0]
            print(f"{name:12} {summary}")
        return 0
    seed = args.seed if args.seed is not None else repro_seed(0)
    try:
        report = run_scenarios(
            names=args.scenario,
            workers=args.workers,
            seed=seed,
            fuzz_rounds=args.fuzz,
        )
    except ConfigError as exc:
        print(f"repro san: {exc}", file=sys.stderr)
        return 2
    report.save(args.json)
    print(report.render())
    print(f"(race report written to {args.json})")
    return 0 if report.ok else 1


def _run_lint(args: argparse.Namespace) -> int:
    """The ``lint`` subcommand; returns the process exit code directly
    (0 clean, 1 findings, 2 usage error)."""
    import inspect
    from pathlib import Path

    from repro.analysis import all_rules, run_lint

    if args.explain:
        rules = all_rules()
        # Rule ids are upper-case; match like --select does.
        rule = rules.get(args.explain.upper())
        if rule is None:
            print(
                f"repro lint: unknown rule {args.explain!r}; "
                f"known: {', '.join(sorted(rules))}",
                file=sys.stderr,
            )
            return 2
        module_doc = inspect.getmodule(rule).__doc__ or ""
        print(f"{rule.rule_id}: {(rule.__doc__ or '').strip()}\n\n{module_doc.strip()}")
        return 0

    if args.call_graph:
        from repro.analysis.dataflow import CallGraph, SymbolTable
        from repro.analysis.project import build_project

        try:
            project = build_project(
                [Path(path) for path in args.paths],
                root=Path(args.root) if args.root else None,
            )
        except FileNotFoundError as exc:
            print(f"repro lint: {exc}", file=sys.stderr)
            return 2
        graph = CallGraph.build(SymbolTable.build(project))
        print(graph.to_dot() if args.call_graph == "dot" else graph.to_json())
        return 0

    # `--select ""` must reach the validator (blank selection is a usage
    # error), so test against None, not truthiness.
    select = (
        [part.strip() for part in args.select.split(",")]
        if args.select is not None
        else []
    )
    cache_path = None if args.no_cache else Path(args.cache)
    try:
        result = run_lint(
            [Path(path) for path in args.paths],
            root=Path(args.root) if args.root else None,
            select=select,
            cache_path=cache_path,
        )
    except (FileNotFoundError, KeyError) as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    print(result.render_json() if args.format == "json" else result.render_text())
    return 0 if result.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
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
        outputs.append(_run_inspect(args))
    elif args.command == "audit":
        outputs.append(_run_audit(args))
    elif args.command == "doctor":
        rendered, healthy = _run_doctor(args)
        print(rendered)
        return 0 if healthy else 1
    elif args.command == "lint":
        return _run_lint(args)
    elif args.command == "san":
        return _run_san(args)
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
