"""Smoke run of the benchmark: it reads counterexample colorings, monochromatic
sides and canonical coloring keys through the public API, so a change to
that API must keep both workloads correct."""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["search", "scan"])
def test_benchmark_smoke_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--size", "smoke", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert (report["correct"], report["failed"]) == (True, 0), report
