"""Compare two spine records: ``python3 benchmarks/spine/compare.py A.json B.json``.

One row per (workload, metric) with both medians, the ratio B/A (its base
is A), and a verdict:

* ``ok`` -- B is no worse than A by more than the metric's bound in
  ``BENCHMARK.json``;
* ``regressed`` -- B is worse than the bound;
* ``unresolved`` -- the q1-q3 spread of either run is wider than the bound
  and the two quartile ranges overlap, so the runs cannot tell;
* ``exact-mismatch`` -- a count declared exact differs;
* ``info`` -- a per-layer measurement, which has no bound.

Failure shares of both runs are printed per workload; a larger share in B
counts as regressed.  Exit status is 1 on any ``regressed`` or
``exact-mismatch``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[2]


def _centre(cell: Dict[str, Any]) -> float:
    """An end-to-end cell's median, or a per-layer cell's value."""
    return cell["median"] if "median" in cell else cell["value"]


def verdict(a: Dict[str, Any], b: Dict[str, Any], better: str, bound: float) -> str:
    """Judge one end-to-end metric of run B against run A."""
    base, new = a["median"], b["median"]
    if base == 0:
        return "ok" if new == 0 else "regressed"
    worse_by = (new - base) / abs(base) if better == "lower" else (base - new) / abs(base)
    spread = max((a["q3"] - a["q1"]) / abs(base), (b["q3"] - b["q1"]) / abs(new) if new else 0.0)
    if spread > bound and a["q1"] <= b["q3"] and b["q1"] <= a["q3"]:
        return "unresolved"
    return "regressed" if worse_by > bound else "ok"


def compare(a: Dict[str, Any], b: Dict[str, Any], bounds: Dict[str, float]) -> Tuple[List[str], bool]:
    lines = [f"{'workload':<16}{'metric':<40}{'A':>14}{'B':>14}{'B/A':>9}  verdict"]
    bad = False
    for workload in sorted(set(a["workloads"]) & set(b["workloads"])):
        run_a, run_b = a["workloads"][workload], b["workloads"][workload]
        for metric, cell_a in run_a["metrics"].items():
            cell_b = run_b["metrics"].get(metric)
            if cell_b is None:
                continue
            base, new = _centre(cell_a), _centre(cell_b)
            if cell_a.get("exact"):
                judged = "ok" if base == new else "exact-mismatch"
            elif metric in bounds:
                judged = verdict(cell_a, cell_b, cell_a["better"], bounds[metric])
            else:
                judged = "info"
            bad = bad or judged in ("regressed", "exact-mismatch")
            ratio = f"{new / base:9.3f}" if base else f"{'-':>9}"
            lines.append(f"{workload:<16}{metric:<40}{base:>14.6g}{new:>14.6g}{ratio}  {judged}")
        shares = []
        for label, run in (("A", run_a), ("B", run_b)):
            tally = run["tally"]
            shares.append(tally["failed"] / tally["attempted"] if tally["attempted"] else 1.0)
            lines.append(f"{workload:<16}failures {label}: {tally['failed']} of "
                         f"{tally['attempted']} attempted ({shares[-1]:.4g})")
        if shares[1] > shares[0]:
            lines.append(f"{workload:<16}more operations fail in B than in A  regressed")
            bad = True
    return lines, bad


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    if a.get("seed") != b.get("seed"):
        print(f"note: seeds differ (A {a.get('seed')}, B {b.get('seed')}): "
              "exact counts are comparable only for one seed")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric["bound"] for metric in declared["end_to_end"]}
    lines, bad = compare(a, b, bounds)
    print("\n".join(lines))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
