"""Smoke test of the benchmark in perfbench/: one traced pass of each workload it runs."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["index_ladder", "sampled_checks"])
def test_one_traced_benchmark_pass_is_correct(workload):
    # The tracer rebuilds witness fields with dataclasses.replace(field,
    # evaluator=..., derivative=...) and reads orbits.scipy, so a change to
    # either fails here.
    pytest.importorskip("scipy")  # the benchmark reports its version
    run = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", "1", "--seconds", "0", "--trace", "1"],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout.splitlines()[-1])
    assert report["correct"] is True and report["failed"] == 0, report
