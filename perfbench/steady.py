"""Steadiness check: run each workload N times and report the spread.

Usage (from the repository root)::

    python3 perfbench/steady.py --runs 10 --seconds 10
    python3 perfbench/steady.py --workloads ask --runs 5 --first-seed 100

Each run is a separate process with its own seed (``first-seed``,
``first-seed + 1``, ...), one at a time.  For every metric the command
prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the interquartile
distance as a share of the median.  For end-to-end metrics it also prints
the metric's bound from BENCHMARK.json and whether the spread stays below
a third of it, which is the evidence for the bounds.  The failed share of
operations must be identical in every run.  A JSON summary goes to
``perfbench/_out/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan")}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="ask,refresh,match")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=None,
                        help="defaults to run_seconds in BENCHMARK.json")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary: dict[str, dict] = {}
    ok = True
    for workload in args.workloads.split(","):
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            result = run_once(workload, seed, seconds, args.trace)
            results.append(result)
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']}", flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        ok &= correct and len(shares) == 1
        rows = {}
        print(f"\n{workload}: {args.runs} runs, correct={correct}, "
              f"failed shares={sorted(shares)}")
        print(f"  {'metric':34} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            stats = summarize(values)
            rows[name] = stats
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                steady = stats["spread"] < bound / 3
                ok &= stats["spread"] < bound
                verdict = "steady" if steady else "WIDE"
            print(f"  {name:34} {stats['median']:12.4f} {stats['q1']:12.4f} "
                  f"{stats['q3']:12.4f} {stats['spread']:8.4f} "
                  f"{'' if bound is None else bound:>6} {verdict}")
        summary[workload] = {"runs": results, "stats": rows,
                             "failed_shares": sorted(shares)}
    out = ROOT / "perfbench" / "_out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(summary, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
