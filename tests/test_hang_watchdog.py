"""The hang watchdog in ``tests/conftest.py`` ends a stuck run."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import repro


def test_a_test_past_the_timeout_dumps_every_thread_and_exits_non_zero(tmp_path):
    shutil.copy(Path(__file__).with_name("conftest.py"), tmp_path / "conftest.py")
    (tmp_path / "test_sleeps.py").write_text(
        "import time\ndef test_sleeps(): time.sleep(20)\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "REPRO_SAN"}
    env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
         "-o", "faulthandler_timeout=1", "test_sleeps.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert run.returncode != 0, run.stdout + run.stderr
    dump = (tmp_path / "hang-dump.txt").read_text()
    assert "Timeout (0:00:01)!" in dump
    assert "most recent call first" in dump
    assert "test_sleeps" in dump
