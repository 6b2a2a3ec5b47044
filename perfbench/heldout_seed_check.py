"""Held-out seed check of the benchmark, at full size.

A run on a seed that was not used while the benchmark was tuned must report
every end-to-end metric within the bound BENCHMARK.json fixes for it, around
the default seed's value. It makes two full-length runs per workload, so its
file name keeps it out of a plain ``pytest`` run; run it explicitly:

    python3 -m pytest perfbench/heldout_seed_check.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import harness

RUN = Path(__file__).resolve().parent / "run.py"
DEFAULT_SEED = 0
HELDOUT_SEED = 90173


def _metrics(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--trace", "0"], capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"]
    return {k: m["value"] for k, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", list(harness.WORKLOADS))
def test_heldout_seed_within_bounds(workload):
    base = _metrics(workload, DEFAULT_SEED)
    held = _metrics(workload, HELDOUT_SEED)
    outside = {}
    for metric in harness.load_spec()["end_to_end"]:
        name = metric["name"]
        change = abs(held[name] - base[name]) / base[name]
        if change > metric["bound"]:
            outside[name] = (base[name], held[name], metric["bound"])
    assert outside == {}
