"""The benchmark harness runs clean on the 96-bit code for every workload.

perfbench/run.py checks its own outputs: repeats of a timed call must agree,
every quantized word must satisfy both syndromes it was sent with, and in a
traced run the spans must cover each timed call.  A change that moves a
public callable or changes what the pipeline caches can break those checks;
this runs each workload at --size tiny with tracing on, about two seconds
each.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_run_is_clean(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--size", "tiny", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, proc.stderr[-2000:]
