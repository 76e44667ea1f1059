"""Smoke test of the benchmark command: every workload, one short run.

Each run goes through the program's diffsearch, training and bench entry
points as perfbench/workloads.py calls them, and checks its own outputs.
The last stdout line must be the JSON result with every check held.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("plan-heap", "plan-dense", "train-desk", "train-maze")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_correctly(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, result
    assert result["failed"] == 0, result
