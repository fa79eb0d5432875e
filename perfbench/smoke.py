#!/usr/bin/env python3
"""Smoke run of the whole benchmark harness on the 96-bit test geometry.

    python3 perfbench/smoke.py

For every workload in BENCHMARK.json it runs ``run.py --size tiny`` twice with
tracing off and twice with tracing on, and checks that

* the last line of standard output is the result object with exactly the keys
  correct, attempted, failed and metrics, with nothing failed;
* every end-to-end metric (untraced) or per-layer metric (traced) named in
  BENCHMARK.json is emitted with the unit given there, and no other;
* all four runs give identical quality numbers (d1, d2, dt, decode failures),
  since every wzkit subcommand is deterministic for a fixed seed.

It then copies BENCHMARK.json and the benchmark directory without the package
and checks that run.py exits non-zero there without printing a result.
Takes well under a minute; exits non-zero on the first problem.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEED = 7


def run(cwd: Path, workload: str, trace: int, detail: Path | None
        ) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
           "--size", "tiny"]
    if detail is not None:
        cmd += ["--detail", str(detail)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    detail = BENCH_DIR / f".smoke-{os.getpid()}.json"
    problems = []
    for wl in (w["name"] for w in spec["workloads"]):
        qualities = []
        for trace in (0, 0, 1, 1):
            proc = run(ROOT, wl, trace, detail)
            tag = f"{wl} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{tag}: correct={result['correct']} "
                                f"failed={result['failed']} of "
                                f"{result['attempted']}\n{proc.stderr}")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != expected[trace]:
                problems.append(f"{tag}: metrics/units differ from BENCHMARK.json: "
                                f"{sorted(set(units.items()) ^ set(expected[trace].items()))}")
            for name, v in result["metrics"].items():
                if not isinstance(v["value"], (int, float)):
                    problems.append(f"{tag}: {name} is not a number")
            qualities.append(json.loads(detail.read_text())["quality"])
            detail.unlink()
        if any(q != qualities[0] for q in qualities):
            problems.append(f"{wl}: quality differs between runs of one seed: "
                            f"{qualities}")
        print(f"{wl}: {len(qualities)} runs, quality {qualities[0] if qualities else None}",
              flush=True)

    # Without the package beside it the benchmark must fail and print no result.
    bare = BENCH_DIR / ".work" / f"bare-{os.getpid()}"
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns(".work", "__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0, None)
        if proc.returncode == 0 or proc.stdout.strip().startswith("{") or \
                '"metrics"' in proc.stdout:
            problems.append(f"bare directory: exit {proc.returncode}, "
                            f"stdout {proc.stdout[-300:]!r}")
        else:
            print(f"bare directory: exit {proc.returncode}, no result", flush=True)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass

    for p in problems:
        print(f"SMOKE FAILED: {p}", file=sys.stderr)
    print("smoke ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
