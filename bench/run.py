"""Benchmark of conebell: fixed workloads, checked results, named metrics.

Run from anywhere; paths are taken relative to this file:

  python3 bench/run.py --workload polytope --seed 1 --seconds 55 --trace 0
  python3 bench/run.py                 # every workload, one table
  python3 bench/run.py --self-test     # smoke run and failure accounting

The load is a closed loop from one process: a pass over the workload's
operations starts when the previous pass ends, with one worker and BLAS
pinned to one thread.  Times are CPU seconds of the worker process, which
leave out the time a shared host steals from the vCPU (see worker.py).
Every operation is timed on its own, and solve_s is the sum over operations
of each one's tenth-percentile time in the run (see fast_pass).  setup_s is
the median over fresh processes of the CPU time each takes, interpreter
start included, until its inputs are ready.  Each measured run is a fresh
process, so set-up time and peak memory are per run.  With --trace 0 the last line of standard
output is a JSON object holding the end-to-end metrics of BENCHMARK.json;
with --trace 1 it holds the per-layer metrics, from one extra pass in another
fresh process with a span around every public conebell function, and the
traced pass must give byte-identical results to the untraced ones.  Spans
are written to .bench_out/ in the checkout.

Exits with code 2 and prints no result when the checkout has no src/conebell.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("polytope", "quantum-fixtures")
# set-up is short and noisy, so it is measured in this many fresh processes
SETUP_PROBES = 5
# a run must end within 180 s; leave room for the set-up probes and exit
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def call_worker(mode, work, deadline, workload=None, seed=0, seconds=0.0, spans=None):
    """Run worker.py in a fresh process and return its result."""
    result = work / f"{mode}-result.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, "-s", str(BENCH / "worker.py"), "--mode", mode,
           "--workdir", str(work), "--result", str(result),
           "--seed", str(seed), "--seconds", str(seconds)]
    if workload:
        cmd += ["--workload", workload]
    if spans:
        cmd += ["--spans", str(spans)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the next worker")
    try:
        proc = subprocess.run(cmd, env=worker_env(), stdout=subprocess.DEVNULL,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {mode} ran out of time") from None
    if proc.returncode != 0 or not result.exists():
        raise BenchError(f"worker {mode} exited with code {proc.returncode}")
    return json.loads(result.read_text())


def count(passes):
    """(attempted, failed) over passes of the same inputs.

    An operation fails when it raised, when its check failed, or when its
    result differs from the same operation's result in the first pass.
    """
    reference = {}
    attempted = failed = 0
    for p in passes:
        for label, result_digest in p["ops"]:
            attempted += 1
            first = reference.setdefault(label, result_digest)
            failed += result_digest is None or result_digest != first
    for p in passes:
        for err in p["errors"]:
            print(f"failed: {err}", file=sys.stderr)
    return attempted, failed


def fast_pass(passes):
    """The sum over operations of each one's tenth-percentile CPU time.

    Even in CPU time the host's speed drifts by a third or more, in phases
    of seconds to minutes, because other tenants share its cores; an
    operation's fast times are its least disturbed readings, and taking the
    tenth percentile of them instead of the fastest keeps one exceptionally
    quick phase from setting the result.  For an operation timed fewer than
    ten times it is the fastest time.
    """
    times = {}
    for p in passes:
        for label, seconds in p["op_s"]:
            times.setdefault(label, []).append(seconds)
    return sum(sorted(ts)[len(ts) // 10] for ts in times.values())


def commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=5)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def remove_workdir(work):
    shutil.rmtree(work, ignore_errors=True)
    try:
        work.parent.rmdir()
    except OSError:  # another run still uses it
        pass


def measure(workload, seed, seconds, trace):
    """One run of a workload: (attempted, failed, metrics, environment)."""
    deadline = time.monotonic() + DEADLINE_S
    work = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            # one untraced pass is enough to measure the tracing overhead
            run = call_worker("run", work, deadline, workload, seed)
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            traced = call_worker("trace", work, deadline, workload, seed,
                                 spans=out_dir / f"trace-{workload}-seed{seed}.json.gz")
            passes = run["passes"] + traced["passes"]
            units = {m["name"]: m["unit"] for m in
                     json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
            metrics = {name: {"value": value, "unit": units[name]}
                       for name, value in traced["layers"].items()}
            traced_s = traced["passes"][0]["solve_s"]
            metrics["trace.solve_s"] = {"value": traced_s, "unit": "s"}
            metrics["trace.overhead_s"] = {"value": traced_s - run["passes"][0]["solve_s"],
                                           "unit": "s"}
            attempted, failed = count(passes)
        else:
            probes = [call_worker("setup", work, deadline, workload, seed)
                      for _ in range(SETUP_PROBES)]
            run = call_worker("run", work, deadline, workload, seed, seconds)
            attempted, failed = count(run["passes"])
            metrics = {
                "solve_s": {"value": fast_pass(run["passes"]), "unit": "s"},
                "setup_s": {"value": statistics.median(p["setup_s"] for p in probes),
                            "unit": "s"},
                "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
                "ok_frac": {"value": (attempted - failed) / attempted, "unit": "ratio"},
            }
        env = {"commit": commit(), "nproc": os.cpu_count(), "python": run["python"],
               "numpy": run["numpy"], "passes": len(run["passes"])}
        return attempted, failed, metrics, env
    finally:
        remove_workdir(work)


def self_test():
    """Smoke passes, failure accounting, and refusal without the sources."""
    problems = []
    work = ROOT / ".bench_work" / f"self-test-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result = call_worker("self-test", work, time.monotonic() + DEADLINE_S)
        problems += result["problems"]
        bare = work / "bare"
        shutil.copytree(BENCH, bare / BENCH.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        if (ROOT / "BENCHMARK.json").exists():
            shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run([sys.executable, str(Path(BENCH.name) / "run.py"),
                               "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                               "--trace", "0"], cwd=bare, capture_output=True, text=True,
                              timeout=DEADLINE_S)
        print(f"without sources: exit code {proc.returncode}, stdout {proc.stdout!r}",
              file=sys.stderr)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("a checkout without src/ did not fail cleanly")
    finally:
        remove_workdir(work)
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload, printed as JSON; all of them by default")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; 0 keeps the catalog inputs unchanged")
    parser.add_argument("--seconds", type=float, default=55.0,
                        help="closed-loop measuring time per run (at least one pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "conebell" / "__init__.py").is_file():
        print(f"error: no conebell sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    try:
        if args.workload:
            attempted, failed, metrics, env = measure(args.workload, args.seed,
                                                      args.seconds, args.trace)
            print("env: " + json.dumps(env))
            print(json.dumps({"correct": failed == 0, "attempted": attempted,
                              "failed": failed, "metrics": metrics}))
            return 0
        summary = {}
        for workload in WORKLOADS:
            attempted, failed, metrics, env = measure(workload, args.seed, args.seconds,
                                                      args.trace)
            row = {name: m["value"] for name, m in metrics.items()}
            row["failed_frac"] = failed / attempted
            summary[workload] = row
            if not args.trace:
                print(f"{workload:18s} solve_s {row['solve_s']:9.3f}  setup_s "
                      f"{row['setup_s']:6.3f}  peak_rss_mb {row['peak_rss_mb']:7.1f}  "
                      f"failed_frac {row['failed_frac']:.3f}")
        print("env: " + json.dumps(env))
        print(json.dumps(summary))
        return 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
