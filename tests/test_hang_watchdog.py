"""The hang watchdog in ``tests/conftest.py`` ends a stuck run."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import repro


def run_pytest(tmp_path, test_body, *options):
    """One pytest run of ``test_body`` under a copy of the suite's conftest."""
    shutil.copy(Path(__file__).with_name("conftest.py"), tmp_path / "conftest.py")
    (tmp_path / "test_body.py").write_text(test_body)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", *options,
         "test_body.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )


def test_a_test_past_the_timeout_dumps_every_thread_and_exits_non_zero(tmp_path):
    run = run_pytest(
        tmp_path, "import time\ndef test_sleeps(): time.sleep(20)\n",
        "-o", "faulthandler_timeout=1",
    )
    assert run.returncode != 0, run.stdout + run.stderr
    dump = (tmp_path / "hang-dump.txt").read_text()
    assert "Timeout (0:00:01)!" in dump
    assert "most recent call first" in dump
    assert "test_sleeps" in dump


def test_a_concurrent_run_that_removed_the_empty_dump_does_not_fail_this_one(tmp_path):
    """Two runs in one directory share ``hang-dump.txt``; the first to
    finish removes it while it is empty.  The test body plays that run."""
    run = run_pytest(
        tmp_path,
        "import os\ndef test_sibling_finishes_first(): os.remove('hang-dump.txt')\n",
        "-o", "faulthandler_timeout=30",
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert not (tmp_path / "hang-dump.txt").exists()
