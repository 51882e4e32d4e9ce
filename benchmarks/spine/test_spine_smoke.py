"""Plumbing check of the measurement spine (run explicitly; not tier-1):

    PYTHONPATH=src python -m pytest benchmarks/spine/test_spine_smoke.py -q -p no:cacheprovider

(``PYTHONPATH=src`` only because ``benchmarks/conftest.py`` imports ``repro``.)

Every run happens in a child process, so the spine's hermetic set-up
(environment stripping, ``sys.path``) never leaks into the test session.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = [sys.executable, str(HERE / "run.py")]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
END_TO_END = [m["name"] for m in DECLARED["end_to_end"]]
PER_LAYER = [m["name"] for m in DECLARED["per_layer"]]


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_declared_names_are_well_formed_and_match_the_spec():
    sys.path.insert(0, str(HERE))
    try:
        import spec
    finally:
        sys.path.remove(str(HERE))
    for name in WORKLOADS + END_TO_END + PER_LAYER:
        assert NAME.fullmatch(name), name
    assert WORKLOADS == [s.name for s in spec.SCENARIOS]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in DECLARED["end_to_end"]] == [
        (m.name, m.unit, m.better, m.bound) for m in spec.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in DECLARED["per_layer"]] == [
        (m.name, m.unit, m.better) for m in spec.PER_LAYER
    ]
    assert DECLARED["paths"] == ["benchmarks/spine"]


def test_all_workloads_and_one_traced_run_in_under_30s(tmp_path):
    started = time.perf_counter()
    record_path = tmp_path / "smoke.json"
    done = subprocess.run(RUN + ["--smoke", "--out", str(record_path)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    record = json.loads(record_path.read_text())
    assert sorted(record["workloads"]) == sorted(WORKLOADS)
    for name, run in record["workloads"].items():
        assert sorted(run["metrics"]) == sorted(END_TO_END), name
        assert all(cell["median"] > 0 for cell in run["metrics"].values()), name
        assert run["tally"]["failed"] == 0 and run["tally"]["attempted"] > 0, name

    traced = subprocess.run(RUN + ["--smoke", "--trace", "1", "--workload", "table1_ds3_se"],
                            capture_output=True, text=True, timeout=120)
    assert traced.returncode == 0, traced.stdout + traced.stderr
    line = _last_json(traced.stdout)
    assert line["correct"] and line["failed"] == 0
    assert list(line["metrics"]) == PER_LAYER
    missing = re.search(r"^missing seams: (.*)$", traced.stdout, re.MULTILINE).group(1)
    assert missing == "none"
    coverage = json.loads(
        re.search(r"^coverage by operation: (.*)$", traced.stdout, re.MULTILINE).group(1)
    )
    assert coverage["tqf_sweep"] >= 0.9
    assert line["metrics"]["trace.overhead_ratio"]["value"] > 0
    assert time.perf_counter() - started < 30


def test_a_corrupted_row_digest_is_counted_and_fails_the_run():
    driver = (
        "import itertools, sys\n"
        f"sys.path.insert(0, {str(HERE)!r})\n"
        "import run\n"
        "run.make_hermetic()\n"
        "import harness\n"
        "fresh = itertools.count()\n"
        "harness.rows_digest = lambda result: str(next(fresh))\n"
        "sys.exit(run.main(['--smoke', '--workload', 'table1_ds1']))\n"
    )
    done = subprocess.run([sys.executable, "-c", driver], capture_output=True, text=True, timeout=120)
    assert done.returncode == 1, done.stdout + done.stderr
    line = _last_json(done.stdout)
    assert line["correct"] is False
    assert line["failed"] > 0
    assert "rows differ from TQF's" in done.stdout
