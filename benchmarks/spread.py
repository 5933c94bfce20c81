#!/usr/bin/env python3
"""Run the benchmark once per seed and report how much its metrics spread.

    python3 benchmarks/spread.py --workload embed-raw --seeds 41-50 --seconds 30

For every end-to-end metric it prints the median of the runs' values, their
quartiles (statistics.quantiles, n=4) and (q3 - q1) / median, the figure that
a bound in BENCHMARK.json has to cover.  Runs go one after another from this
process.  --json FILE also writes the figures, with each run's result line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values),
            "iqr_over_median": (q3 - q1) / median}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, required=True, help="e.g. 41-50 or 1,3,5")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--json", type=Path, default=None)
    args = parser.parse_args()
    if len(args.seeds) < 2:
        parser.error("--seeds needs at least two seeds")
    runs = []
    for seed in args.seeds:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", "0"]
        start = time.monotonic()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=args.seconds + 170)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        elapsed = time.monotonic() - start
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, "elapsed_s": elapsed, **result})
        values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed} ({elapsed:.1f} s): correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {values}", flush=True)
    names = list(runs[0]["metrics"])
    figures = {name: spread([r["metrics"][name]["value"] for r in runs]) for name in names}
    for name, fig in figures.items():
        print(f"  {name:14s} median {fig['median']:10.5g}  q1 {fig['q1']:10.5g}  q3 {fig['q3']:10.5g}  "
              f"(q3-q1)/median {fig['iqr_over_median']:.3f}")
    if args.json:
        args.json.write_text(json.dumps({"workload": args.workload, "seconds": args.seconds,
                                         "figures": figures, "runs": runs}, indent=1) + "\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
