"""Measurement spine: one command, every metric by name.

    python3 benchmarks/spine/run.py --workload table1_ds1 --seed 11 --seconds 20 --trace 0

runs one workload in this process, prints every metric with unit, ``n``,
median and quartiles, checks the outputs, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of a separate traced run with
``--trace 1``.  Without ``--workload`` all four workloads run, each in
its own child process.  ``--out FILE`` keeps the full record for
``compare.py``.  Exit status is 1 when any operation failed.

The run is hermetic: every ``REPRO_*`` variable is dropped before
``repro`` is imported, configurations are built explicitly, inputs come
from ``--seed`` alone, and ledgers live in a private directory under
``benchmarks/spine/.work`` that is removed on exit.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = HERE / ".work"

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Fewest timed rounds of an untraced / a traced run (after one warm-up).
MIN_ROUNDS = 4
MIN_TRACED_ROUNDS = 2


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", default=[],
                        help="workload name (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=11,
                        help="feeds dataset generation and the base-call key choice")
    parser.add_argument("--seconds", type=float, default=None,
                        help="time box of the measured rounds (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: traced run reporting the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny datasets, one set-up, one round: checks the plumbing")
    parser.add_argument("--out", help="write the full run record to this JSON file")
    parser.add_argument("--spans", help="traced run: dump raw spans to this JSON-lines file")
    return parser.parse_args(argv)


def make_hermetic() -> None:
    """Drop ambient ``REPRO_*`` settings and import the checkout's source."""
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    source = ROOT / "src"
    if not (source / "repro").is_dir():
        sys.exit(f"spine: {source}/repro not found; run from a checkout of the repository")
    for entry in (str(source), str(HERE)):
        if entry in sys.path:
            sys.path.remove(entry)
        sys.path.insert(0, entry)


def filesystem_type(path: Path) -> str:
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as mounts:
            for line in mounts:
                _device, mount, fstype = line.split()[:3]
                if str(path).startswith(mount) and len(mount) > len(best):
                    best, kind = mount, fstype
    except OSError:
        pass
    return kind


def git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else "unknown"


def fingerprint(workdir: Path) -> Dict[str, Any]:
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "workdir_fs": filesystem_type(workdir),
    }


# -- one workload, this process ------------------------------------------------


def measure_end_to_end(scenario: Any, args: argparse.Namespace, workdir: Path) -> Dict[str, Any]:
    import harness
    from spec import END_TO_END

    setups = 1 if args.smoke else SETUPS
    setup_samples: Dict[str, List[float]] = {"seconds": [], "raw": []}
    world = None
    for index in range(setups):
        if world is not None:
            world.close()
            shutil.rmtree(world.workdir, ignore_errors=True)
        world = harness.World(scenario, args.seed, workdir / f"setup-{index}", smoke=args.smoke)
        world.build()
        setup_samples["seconds"] += world.samples.pop("setup_s")
        setup_samples["raw"] += world.raw_samples.pop("setup_s")
    assert world is not None
    try:
        world.check_setup()
        bytes_per_event = world.ledger_bytes_per_event()
        built = world.describe()
        start = perf_counter()
        if not args.smoke:
            world.run_round()  # warm-up: first touch of every path, discarded
            world.samples.clear()
            world.raw_samples.clear()
        box = 0.0 if args.smoke else args.seconds - (perf_counter() - start)
        rounds = harness.run_rounds(world, box, 1 if args.smoke else MIN_ROUNDS)
    finally:
        world.close()
    samples, raw = dict(world.samples), dict(world.raw_samples)
    samples["setup_s"], raw["setup_s"] = setup_samples["seconds"], setup_samples["raw"]
    samples["ledger_bytes_per_event"] = [bytes_per_event]
    samples["peak_rss_mb"] = [harness.peak_rss_mb()]
    metrics = {
        m.name: {"unit": m.unit, "better": m.better, **harness.summarize(samples[m.name])}
        for m in END_TO_END
        if samples.get(m.name)
    }
    for name, values in raw.items():
        # What the clock read, before scaling to the reference CPU speed.
        metrics[name]["raw_median"] = statistics.median(values)
    for m in END_TO_END:
        world.tally.check(m.name in metrics, f"no sample of {m.name}")
    return {
        "metrics": metrics,
        "built": built,
        "config": dataclasses.asdict(world.config),
        "repetitions": {"setups": setups, "warmup_rounds": 0 if args.smoke else 1,
                        "timed_rounds": rounds, "per_round": dict(harness.OPS)},
        "tally": world.tally,
    }


def measure_per_layer(scenario: Any, args: argparse.Namespace, workdir: Path) -> Dict[str, Any]:
    import harness
    import layers
    import trace
    from spec import PER_LAYER_BY_NAME

    sweeps = ("tqf_sweep_s", "m1_sweep_s", "m2_sweep_s")
    world = harness.World(scenario, args.seed, workdir / "setup-0", smoke=args.smoke)
    world.build()
    recorder = trace.Recorder(keep_spans=bool(args.spans))
    rounds: List[Any] = []
    counters: List[Dict[str, int]] = []
    try:
        world.check_setup()
        built = world.describe()
        start = perf_counter()
        if not args.smoke:
            world.run_round()  # warm-up, discarded
            world.samples.clear()
        world.run_round()  # untraced reference for the overhead ratio
        untraced = sum(statistics.median(world.samples[name]) for name in sweeps)
        world.samples.clear()

        def after_round() -> None:
            rounds.append(recorder.end_round())
            counters.append(dict(world.round_counters))

        installed = trace.install(recorder)
        world.tracer = recorder
        try:
            box = 0.0 if args.smoke else args.seconds - (perf_counter() - start)
            harness.run_rounds(world, box, 1 if args.smoke else MIN_TRACED_ROUNDS, after_round)
        finally:
            trace.uninstall(installed)
    finally:
        world.close()
    traced = sum(statistics.median(world.samples[name]) for name in sweeps)
    folded = layers.per_layer_metrics(rounds, counters, traced / untraced, world.tally)
    metrics = {
        name: {"unit": PER_LAYER_BY_NAME[name].unit, "better": PER_LAYER_BY_NAME[name].better,
               "exact": PER_LAYER_BY_NAME[name].exact, **cell}
        for name, cell in folded.items()
    }
    if args.spans:
        recorder.write_spans(args.spans)
    last = rounds[-1]
    return {
        "metrics": metrics,
        "built": built,
        "config": dataclasses.asdict(world.config),
        "repetitions": {"setups": 1, "warmup_rounds": 0 if args.smoke else 1,
                        "untraced_rounds": 1, "traced_rounds": len(rounds),
                        "per_round": dict(harness.OPS)},
        "missing_seams": installed.missing,
        "coverage_by_op": {op: last.coverage(op) for op in sorted(last.roots_by_op)},
        # name -> [count, total_s, self_s] of the last traced round, per operation
        "spans_by_op": last.by_op,
        "tally": world.tally,
    }


def print_metrics(name: str, mode: str, result: Dict[str, Any]) -> None:
    print(f"== {name} ({mode}) ==")
    print(f"built: {json.dumps(result['built'], sort_keys=True)}")
    print(f"repetitions: {json.dumps(result['repetitions'])}")
    if mode == "end_to_end":
        print(f"{'metric':<28}{'unit':<10}{'n':>4}{'median':>14}{'q1':>14}{'q3':>14}{'raw median':>14}")
        for metric, cell in result["metrics"].items():
            raw = f"{cell['raw_median']:>14.6g}" if "raw_median" in cell else ""
            print(f"{metric:<28}{cell['unit']:<10}{cell['n']:>4}"
                  f"{cell['median']:>14.6g}{cell['q1']:>14.6g}{cell['q3']:>14.6g}{raw}")
    else:
        print(f"{'metric':<40}{'unit':<8}{'n':>3}{'value':>16}{'min':>16}{'max':>16}")
        for metric, cell in result["metrics"].items():
            mark = " exact" if cell["exact"] else ""
            print(f"{metric:<40}{cell['unit']:<8}{cell['n']:>3}"
                  f"{cell['value']:>16.6g}{cell['min']:>16.6g}{cell['max']:>16.6g}{mark}")
        print(f"missing seams: {result['missing_seams'] or 'none'}")
        print(f"coverage by operation: {json.dumps(result['coverage_by_op'])}")
    tally = result["tally"]
    rate = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"error_rate: {rate:.6g} ({tally.failed} failed of {tally.attempted} attempted)")
    for failure in tally.failures[:20]:
        print(f"  FAILED {failure}")


def run_one(name: str, args: argparse.Namespace) -> int:
    from spec import SCENARIO_BY_NAME

    if name not in SCENARIO_BY_NAME:
        sys.exit(f"spine: unknown workload {name!r}; expected one of {sorted(SCENARIO_BY_NAME)}")
    scenario = SCENARIO_BY_NAME[name]
    mode = "per_layer" if args.trace else "end_to_end"
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    # A terminated run must still remove its ledgers: turn SIGTERM into an exit.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        host = fingerprint(workdir)
        measure = measure_per_layer if args.trace else measure_end_to_end
        result = measure(scenario, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run is using it
    tally = result["tally"]
    print(f"spine seed={args.seed} seconds={args.seconds} smoke={args.smoke} "
          f"flush_policy=flush/flush host={json.dumps(host, sort_keys=True)}")
    print_metrics(name, mode, result)
    result["tally"] = {"attempted": tally.attempted, "failed": tally.failed,
                       "failures": tally.failures}
    if args.out:
        record = {"schema": "spine-1", "mode": mode, "seed": args.seed, "seconds": args.seconds,
                  "smoke": args.smoke, "host": host, "workloads": {name: result}}
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    value_key = "value" if args.trace else "median"
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {metric: {"value": cell[value_key], "unit": cell["unit"]}
                    for metric, cell in result["metrics"].items()},
    }))
    return 0 if tally.failed == 0 else 1


# -- several workloads, one child process each ---------------------------------


def run_children(names: List[str], args: argparse.Namespace) -> int:
    """Run each workload in a child of its own, so peak RSS is per workload."""
    WORK.mkdir(exist_ok=True)
    merged: Optional[Dict[str, Any]] = None
    status = 0
    with tempfile.TemporaryDirectory(prefix="records-", dir=WORK) as records:
        for name in names:
            record_path = Path(records) / f"{name}.json"
            command = [sys.executable, str(HERE / "run.py"), "--workload", name,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(args.trace), "--out", str(record_path)]
            if args.smoke:
                command.append("--smoke")
            if args.spans:
                command += ["--spans", f"{args.spans}.{name}"]
            sys.stdout.flush()
            done = subprocess.run(command, check=False)
            status = status or done.returncode
            if record_path.exists():
                record = json.loads(record_path.read_text())
                if merged is None:
                    merged = record
                else:
                    merged["workloads"].update(record["workloads"])
    try:
        WORK.rmdir()
    except OSError:
        pass
    if args.out and merged is not None:
        Path(args.out).write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    make_hermetic()
    from spec import SCENARIOS

    if args.seconds is None:
        args.seconds = float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    names = args.workload or [scenario.name for scenario in SCENARIOS]
    if len(names) == 1:
        return run_one(names[0], args)
    return run_children(names, args)


if __name__ == "__main__":
    sys.exit(main())
