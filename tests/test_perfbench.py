"""Smoke test of the benchmark in perfbench/: one traced pass of each workload it runs."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload, seed", [
    pytest.param("index_ladder", 1, id="index_ladder"),
    pytest.param("sampled_checks", 1, id="sampled_checks"),
    # A fault that only some inputs show fails the benchmark at some seeds alone.
    pytest.param("sampled_checks", 2, id="sampled_checks-seed2"),
    pytest.param("sampled_checks", 3, id="sampled_checks-seed3"),
])
def test_one_traced_benchmark_pass_is_correct(workload, seed):
    # The tracer rebuilds witness fields with dataclasses.replace(field,
    # evaluator=..., derivative=...) and reads orbits.scipy, so a change to
    # either fails here.
    pytest.importorskip("scipy")  # the benchmark reports its version
    run = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", "0", "--trace", "1"],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout.splitlines()[-1])
    assert report["correct"] is True and report["failed"] == 0, report
