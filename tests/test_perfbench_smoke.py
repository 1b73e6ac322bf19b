"""The benchmark's calls into phototact, run once per workload at its tiny scale.

``perfbench/worker.py`` drives each workload through the CLI with the layer
trace on and checks every output; a renamed function, a changed signature or
a moved output breaks it.  The worker runs as a child process, as the
benchmark runs it, with ``src`` first on PYTHONPATH.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKER = ROOT / "perfbench" / "worker.py"


@pytest.mark.parametrize("workload", ["calibrate", "characterize", "detection"])
def test_tiny_traced_run_is_correct(tmp_path, workload):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, str(WORKER), "--workload", workload, "--seed", "0", "--seconds", "0", "--trace", "1",
            "--scale", "tiny", "--work", str(tmp_path / "work"), "--src", str(SRC)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["correct"], result["record"]["problems"]
    assert result["failed"] == 0 and result["attempted"] > 0
