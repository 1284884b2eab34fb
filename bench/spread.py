"""Repeat benchmark runs over seeds and summarize the spread of each metric.

  python3 bench/spread.py --workload polytope --seeds 1-10
  python3 bench/spread.py --workload quantum-fixtures --seeds 1-10 --out bench/baseline.json

Each run is `run.py --workload W --seed S` in a fresh process.  For every
metric the summary holds the median, the quartiles as
statistics.quantiles(values, n=4) gives them, and the interquartile range as a
share of the median, which is what a bound in BENCHMARK.json is compared with.
With --out the runs and the summary are stored under the workload's name in
that JSON file, next to what the file already holds.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / median if median else 0.0, "n": len(values)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"),
                        help="inclusive range such as 1-10")
    parser.add_argument("--seconds", default="55")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    runs = []
    for seed in args.seeds:
        proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
                               "--seed", str(seed), "--seconds", args.seconds,
                               "--trace", args.trace], capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        result["seed"] = seed
        result["env"] = json.loads(lines[-2].removeprefix("env: "))
        runs.append(result)
        shown = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                         if k in ("solve_s", "setup_s", "peak_rss_mb", "ok_frac", "trace.solve_s"))
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']} {shown}",
              flush=True)
    summary = {name: summarize([r["metrics"][name]["value"] for r in runs])
               for name in runs[0]["metrics"]}
    for name, s in summary.items():
        if args.trace == "0":
            print(f"{name:14s} median {s['median']:.4f}  q1 {s['q1']:.4f}  q3 {s['q3']:.4f}  "
                  f"iqr/median {s['iqr_share']:.3f}")
    if args.out:
        stored = json.loads(args.out.read_text()) if args.out.exists() else {}
        key = args.workload + (" traced" if args.trace == "1" else "")
        stored[key] = {"seconds": float(args.seconds), "summary": summary, "runs": runs}
        args.out.write_text(json.dumps(stored, indent=1) + "\n")
    return 0 if all(r["failed"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
