#!/usr/bin/env python3
"""Run every workload over a range of seeds and record the spread.

    python3 perfbench/baseline.py --out perfbench/baseline.json

For each workload in BENCHMARK.json, runs ``run.py`` once for each of the
seeds 1 to 10 with tracing off, then once with tracing on for seed 1.  For
each end-to-end metric it reports the median, the quartiles and their
distance as a share of the median (``statistics.quantiles(values, n=4)``),
next to the metric's bound; the traced run gives the per-layer numbers and
the tracing overhead (traced words_per_s against the untraced run of the same
seed).  It also records the spreads of the two timings in wall seconds,
before run.py rescales them to the reference speed, and the environment:
Python, numpy and scipy versions, nproc, git revision and the pinned thread
variables.  Runs are sequential.  Exits non-zero if any spread of an
end-to-end metric is over a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEEDS = range(1, 11)


def run_once(spec: dict, workload: str, seed: int, trace: int,
             seconds: int, detail: Path) -> dict:
    cmd = [sys.executable if spec["command"][0] == "python3" else spec["command"][0],
           *spec["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--detail", str(detail)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(detail.read_text())
    detail.unlink()
    return {"seed": seed, "wall_s": wall, "result": result, "detail": record}


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / med if med else float("inf"),
            "values": values}


def git_rev() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() or None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default=None, help="write the summary JSON here")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    detail = BENCH_DIR / f".detail-{os.getpid()}.json"
    summary = {"git_rev": git_rev(), "run_seconds": seconds,
               "seeds": list(SEEDS),
               "workloads": {}}
    steady = True
    for name in names:
        runs = [run_once(spec, name, s, 0, seconds, detail)
                for s in summary["seeds"]]
        entry = {"runs_wall_s": [r["wall_s"] for r in runs],
                 "attempted": sum(r["result"]["attempted"] for r in runs),
                 "failed": sum(r["result"]["failed"] for r in runs),
                 "correct": all(r["result"]["correct"] for r in runs),
                 "quality": {r["seed"]: r["detail"]["quality"] for r in runs},
                 "runs": [{"seed": r["seed"], "wall_s": r["wall_s"],
                           **{k: v for k, v in r["detail"].items()
                              if k.endswith("_s") or k == "wall"}}
                          for r in runs],
                 "end_to_end": {}}
        summary.setdefault("environment", runs[0]["detail"]["environment"])
        for metric in spec["end_to_end"]:
            vals = [r["result"]["metrics"][metric["name"]]["value"] for r in runs]
            s = spread(vals)
            s.update(unit=metric["unit"], better=metric["better"],
                     bound=metric["bound"])
            entry["end_to_end"][metric["name"]] = s
            ok = s["iqr_over_median"] <= metric["bound"] / 3
            steady &= ok
            print(f"{name:14s} {metric['name']:12s} median {s['median']:.6g} "
                  f"{metric['unit']:5s} spread {s['iqr_over_median']:.4f} "
                  f"bound {metric['bound']}{'' if ok else '  <-- over a third'}",
                  flush=True)
        # the same timings in wall seconds, before the reference-speed scaling
        entry["wall_clock"] = {k: spread([r["detail"]["wall"][k] for r in runs])
                               for k in runs[0]["detail"]["wall"]}
        print(f"{name:14s} wall-clock spreads, not scaled: " + ", ".join(
            f"{k} {v['iqr_over_median']:.4f}"
            for k, v in entry["wall_clock"].items()), flush=True)
        print(f"{name:14s} wall per run: median "
              f"{statistics.median(entry['runs_wall_s']):.1f} s, max "
              f"{max(entry['runs_wall_s']):.1f} s; failed {entry['failed']} of "
              f"{entry['attempted']}", flush=True)
        traced = run_once(spec, name, summary["seeds"][0], 1, seconds, detail)
        layer = {k: v["value"] for k, v in traced["result"]["metrics"].items()}
        untraced = runs[0]["result"]["metrics"]["words_per_s"]["value"]
        entry["per_layer"] = layer
        entry["trace"] = {
            "wall_s": traced["wall_s"],
            "correct": traced["result"]["correct"],
            "quality_matches_untraced":
                traced["detail"]["quality"] == runs[0]["detail"]["quality"],
            "words_per_s_untraced": untraced,
            "words_per_s_traced": layer["trace.words_per_s"],
            "overhead_frac_measured": untraced / layer["trace.words_per_s"] - 1,
            "overhead_s_estimated": layer["trace.overhead_s"],
            "coverage_gap_s_max": max(traced["detail"]["coverage_gap_s"]),
        }
        print(f"{name:14s} traced: {json.dumps(entry['trace'])}", flush=True)
        summary["workloads"][name] = entry
    summary["environment"]["nproc"] = os.cpu_count()
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    print("steady" if steady else "NOT steady: some spread is over a third "
          "of its bound")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
