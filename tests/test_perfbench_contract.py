"""The benchmark in ``perfbench/`` runs against this package's names.

``perfbench/run.py`` imports the package from ``src/`` and reaches into
its modules (layer functions it wraps for tracing, the CLI's trace
format), so a rename or removal there fails the benchmark, not the unit
tests.  Each run here is the shortest the benchmark allows: one pass.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "workload, trace",
    [
        ("braid", "0"), ("braid", "1"), ("traced", "0"), ("traced", "1"), ("batch", "0"), ("batch", "1"),
        ("crossings-10", "0"), ("crossings-10", "1"),
    ],
)
def test_benchmark_runs_clean(workload, trace):
    r = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", trace],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=300,
    )
    assert r.returncode == 0, r.stderr
    result = json.loads(r.stdout.splitlines()[-1])
    assert result["correct"] is True, r.stderr
    assert result["failed"] == 0, r.stderr
