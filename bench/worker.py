"""One measured process of the conebell benchmark; started by run.py.

Modes:
  setup   build the workload's inputs, record the CPU time taken so far, exit;
  run     build the inputs, then run passes over the workload's operations in
          a closed loop: the next pass starts when the previous one ends, and
          only if it is expected to end within --seconds (at least one pass);
  trace   like run, but with spans around every public conebell function,
          set-up included, and exactly one pass;
  self-test
          tiny-input smoke passes, plus proof that a corrupted result and an
          operation that raises are each counted as failed, and that a traced
          pass gives the same results as an untraced one.

Times are CPU seconds of this process, not wall time: the workload runs in
this one single-threaded process (one worker, BLAS pinned to one thread), so
on an idle host the two agree, while on a shared one the hypervisor takes the
vCPU away for a quarter of the time or more in phases lasting minutes, and
that stolen time counts in wall time only.

Writes its result as JSON to --result.  conebell must come from the src/
directory next to this benchmark; any other copy is refused.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_pass(workload, inputs, tracer=None):
    """Time one pass over the operations, each on its own, then check every output.

    Times are CPU seconds of this process (see the module docstring), except
    wall_s, the pass's wall time, which paces the closed loop.  An operation
    that raises or returns a wrong output is counted as failed; the pass goes
    on with the next one.
    """
    outcomes, op_s = [], []
    with contextlib.redirect_stdout(io.StringIO()):
        if tracer is not None:
            tracer.enabled = True
        wall_start, start = time.perf_counter(), time.process_time()
        for label, op in workload.operations(inputs):
            op_start = time.process_time()
            try:
                outcomes.append((label, op(), None))
            except Exception as exc:  # counted as a failed operation
                outcomes.append((label, None, exc))
            op_s.append([label, time.process_time() - op_start])
        solve_s = time.process_time() - start
        wall_s = time.perf_counter() - wall_start
        if tracer is not None:
            tracer.enabled = False
    ops, errors = [], []
    for label, out, exc in outcomes:
        result_digest = None
        if exc is None:
            try:
                result_digest = hashlib.sha256(workload.check(label, out, inputs)).hexdigest()
            except Exception as check_exc:  # a wrong output, or one the check cannot read
                exc = check_exc
        if exc is not None:
            errors.append(f"{label}: {type(exc).__name__}: {exc}"[:400])
        ops.append([label, result_digest])
    return {"solve_s": solve_s, "wall_s": wall_s, "op_s": op_s, "ops": ops, "errors": errors}


def failures(result):
    return sum(digest is None for _, digest in result["ops"])


def closed_loop(workload, inputs, seconds):
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(workload, inputs))
        longest = max(p["wall_s"] for p in passes)
        if time.perf_counter() - start + longest > seconds:
            return passes


def self_test(workloads, workdir):
    """Smoke passes on tiny inputs and the failure accounting; returns problems."""
    problems = []
    for name, wl in workloads.SMOKE.items():
        inputs = wl.setup(0, workdir)
        result = run_pass(wl, inputs)
        print(f"smoke {name}: {len(result['ops'])} operations, {failures(result)} failed "
              f"in {result['solve_s']:.2f} s", file=sys.stderr)
        if failures(result) or not result["ops"]:
            problems.append(f"smoke {name} failed: {result['errors']}")

    def corrupted(wl, inputs, change):
        class Corrupted:
            def operations(self, inp):
                return [(label, lambda op=op, label=label: change(label, op()))
                        for label, op in wl.operations(inp)]

            def check(self, label, out, inp):
                return wl.check(label, out, inp)
        return run_pass(Corrupted(), inputs)

    def rewrite(path, old, new):
        text = path.read_text()
        if old not in text:
            raise AssertionError(f"{old!r} not in {path.name}")
        path.write_text(text.replace(old, new, 1))
        return path

    def flip_first_normal(label, facets):
        first = facets[0]
        return [type(first)(vector=tuple(-x for x in first.vector),
                            saturating=first.saturating)] + facets[1:]

    def quantum_change(label, out):
        if label.startswith("seesaw"):
            value = next(ln for ln in out.read_text().splitlines() if ln.startswith("value:"))
            return rewrite(out, value, f"value: {float(value[6:]) + 1e-3!r}")
        return rewrite(out, " 1 1 1 -1\n", " 1 1 1 1\n")

    cases = [
        ("enum-2x2", flip_first_normal),
        ("generalize-chsh3-pairs",
         lambda label, out: rewrite(out, "bound: 2\n", "bound: 3\n")),
        ("quantum-chsh", quantum_change),
    ]
    for name, change in cases:
        wl = workloads.SMOKE[name]
        inputs = wl.setup(0, workdir)
        result = corrupted(wl, inputs, change)
        print(f"corrupted {name}: {failures(result)} of {len(result['ops'])} failed "
              f"{result['errors']}", file=sys.stderr)
        if failures(result) != len(result["ops"]):
            problems.append(f"corrupted {name}: only {failures(result)} of "
                            f"{len(result['ops'])} counted as failed")

    def boom(label, out):
        raise RuntimeError("injected failure")

    wl = workloads.SMOKE["quantum-chsh"]
    result = corrupted(wl, wl.setup(0, workdir), boom)
    print(f"raising: {failures(result)} of {len(result['ops'])} failed", file=sys.stderr)
    if failures(result) != len(result["ops"]) or len(result["ops"]) != 2:
        problems.append("an operation that raises was not counted as failed")

    import spans
    wl = workloads.SMOKE["generalize-chsh3-pairs"]
    inputs = wl.setup(0, workdir)
    plain = run_pass(wl, inputs)
    tracer = spans.Tracer()
    tracer.install()
    traced = run_pass(wl, inputs, tracer)
    print(f"traced: {len(tracer.span_start)} spans", file=sys.stderr)
    if traced["ops"] != plain["ops"] or not tracer.layer_totals()["search.canonical_form"][0]:
        problems.append("the traced pass differs from the untraced one or recorded no spans")
    return problems


def main(args):
    import conebell
    import numpy

    if Path(conebell.__file__).resolve().parent != ROOT / "src" / "conebell":
        print(f"error: conebell imported from {conebell.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    import conebell.cli  # noqa: F401  (every conebell module is loaded before tracing)
    import workloads

    if args.mode == "self-test":
        problems = self_test(workloads, Path(args.workdir))
        Path(args.result).write_text(json.dumps({"problems": problems}))
        return 0
    workload = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.mode == "trace":
        import spans
        tracer = spans.Tracer()
        tracer.install()
        tracer.enabled = True
    inputs = workload.setup(args.seed, Path(args.workdir))
    result = {"setup_s": time.process_time(), "numpy": numpy.__version__,
              "python": sys.version.split()[0]}
    if args.mode == "run":
        result["passes"] = closed_loop(workload, inputs, args.seconds)
    elif args.mode == "trace":
        result["passes"] = [run_pass(workload, inputs, tracer)]
        wanted = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
                  if not m["name"].startswith("trace.")]
        result["layers"] = spans.layer_metrics(tracer, wanted)
        tracer.write(args.spans)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "run", "trace", "self-test"), required=True)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    sys.exit(main(parser.parse_args()))
