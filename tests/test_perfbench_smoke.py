"""Smoke test of the benchmark command: every workload, one short run.

Each run goes through the program's diffsearch, training and bench entry
points as perfbench/workloads.py calls them, and checks its own outputs.
The last stdout line must be the JSON result with every check held. One
traced run also wraps every entry point the tracer pins, whatever the
workload, so it catches a renamed or removed one that untraced runs miss.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("plan-heap", "plan-dense", "train-desk", "train-maze")


def run_checked(workload: str, trace: str) -> None:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, result
    assert result["failed"] == 0, result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_correctly(workload):
    run_checked(workload, "0")


def test_traced_run_finds_every_pinned_entry_point():
    run_checked("train-desk", "1")
