"""The benchmark's three workloads at their tiny size: every call the
benchmark makes still runs, and its outputs pass the benchmark's checks."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["equilibrium-search", "belief-refinement", "binary-sweep"])
def test_tiny_workload_runs_correctly(workload):
    argv = ["--workload", workload, "--seed", "1", "--seconds", "0", "--size", "tiny", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *argv],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
