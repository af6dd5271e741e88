"""dichokit benchmark: one workload, closed loop, one thread, reference-checked.

Run from the repository root:

    python3 bench/run.py --workload certify-grid --seed 1 --seconds 30 --trace 0

Workloads: certify-grid, lyapunov-S, coupled-spectrum, offgrid-session (see
bench/workloads.py and BENCHMARK.json for why each exists).  A pass runs the
workload's whole pipeline on a fresh EvolutionOperator, so the cold
integration a user pays is counted; passes repeat while a typical pass still
fits in --seconds.
Every top-level dichokit call waits for the previous one, in this one
process, pinned to the lowest-numbered CPU it may use; BLAS is pinned to one
thread.

The first pass of a run warms up and is not timed.  During each untraced
pass, bench/hostspeed.py samples the speed of the host's CPU, which drifts by
up to a factor of two within a minute on a shared host; pass and call times
are reported in host-normalised seconds (see there).  The raw wall times and
the host scales are printed too.

--trace 0 prints the end-to-end metrics:
    setup_s        median over 3 fresh processes of import plus input
                   building (wall time: import time follows the host's
                   drift too loosely to normalise)
    pipeline_s     median normalised pass time
    query_p50_ms   median over passes of the per-pass median normalised call
                   latency
    query_tail_ms  median over passes of the per-pass highest percentile with
                   at least 10 calls beyond it (the slowest call when a pass
                   makes 10 or fewer); a call is one top-level dichokit call
    ref_err        worst relative error against the independent reference
    ok_frac        operations that passed their reference over attempted
    peak_rss_mb    peak resident set size of this process
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics of the traced ones (raw wall times), the span table with each span's
parent, and the tracing overhead (traced minus untraced raw pass time).

The last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
An operation fails if it raises or misses its reference tolerance.
``correct`` is false if any operation fails, other than those of the known
defect named in workloads.KNOWN_DEFECT, if a self-check corruption goes
unnoticed, or if a traced count does not repeat across passes.
"""

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from hostspeed import Sampler

# before numpy is first imported (in _import_workloads)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
# Run on one fixed CPU: on a shared host the CPUs of one machine can differ
# in speed by tens of percent, and a process left to the scheduler lands on
# any of them.  Child processes inherit the pinning.
CPU = min(os.sched_getaffinity(0))
SRC = ROOT / "src"
SETUP_PROCESSES = 3
WORKLOAD_NAMES = ("certify-grid", "lyapunov-S", "coupled-spectrum", "offgrid-session")


def _import_workloads():
    """Import dichokit from this checkout's src/ (and nowhere else)."""
    if not (SRC / "dichokit" / "__init__.py").is_file():
        sys.exit(f"bench: no dichokit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads

    import dichokit

    if Path(dichokit.__file__).resolve().parent != SRC / "dichokit":
        sys.exit(f"bench: imported dichokit from {dichokit.__file__}, not from {SRC}")
    return workloads


def setup_probe(workload, seed):
    """Child process: time import plus building the inputs, print seconds."""
    t0 = time.perf_counter()
    wl = _import_workloads().WORKLOADS[workload]
    wl.build(seed)
    print(repr(time.perf_counter() - t0))


def measure_setup(workload, seed):
    times = []
    for _ in range(SETUP_PROCESSES):
        proc = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", workload, "--seed", str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=ROOT,
            env=os.environ.copy(),
        )
        if proc.returncode != 0:
            sys.exit(f"bench: setup probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times), times


def tail(latencies):
    """Highest percentile with at least 10 samples beyond it (max if n <= 10)."""
    xs = sorted(latencies)
    return (xs[-11], f"p{100 * (len(xs) - 10) / len(xs):.4g}") if len(xs) > 10 else (xs[-1], "max")


def run_pass(wl, inputs, sampler=None):
    """One timed pass: (raw seconds, [(raw call seconds, host scale)], host
    scale, outputs or None).

    With a sampler, the time its samples took is taken out of every timing,
    and each call gets the host scale of the samples near it.
    """
    calls = []
    spent = (lambda: sampler.spent) if sampler else (lambda: 0.0)

    def call(fn, *args, **kwargs):
        s0, t0 = spent(), time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            calls.append((t0, t1, t1 - t0 - (spent() - s0)))

    gc.collect()
    with sampler or contextlib.nullcontext():
        s0, t0 = spent(), time.perf_counter()
        try:
            out = wl.run(inputs, call)
        except Exception:
            # a raising call fails its pass's remaining operations
            traceback.print_exc()
            out = None
        t1 = time.perf_counter()
    if not sampler:
        return t1 - t0, [(c[2], 1.0) for c in calls], 1.0, out
    scaled = [(c[2], sampler.scale_near(c[0], c[1])) for c in calls]
    return t1 - t0 - (spent() - s0), scaled, sampler.scale_near(t0, t1), out


def environment():
    import numpy
    import scipy

    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((SRC / "dichokit").glob("*.py")))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "cpu": CPU,
        "src_lines": src_lines,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    os.sched_setaffinity(0, {CPU})

    W = _import_workloads()
    wl = W.WORKLOADS[args.workload]
    env = environment()
    print(f"workload {wl.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    for entry in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]:
        if entry["name"] == wl.name:
            print("why: " + entry["why"])
    print("environment: " + json.dumps(env))

    setup = None if args.trace else measure_setup(wl.name, args.seed)
    inputs = wl.build(args.seed)
    ref = wl.reference(inputs)
    if args.trace:
        from spans import EXACT, UNITS, Tracer

        tracer = Tracer()
        traced_inputs = wl.build(args.seed, wrap=tracer.field)

    # passes as (raw seconds, [(raw call seconds, host scale)], host scale)
    plain, traced, per_layer = [], [], []
    all_ops, first_values = [], None
    started = time.perf_counter()
    sampler = Sampler()
    run_pass(wl, inputs, sampler)  # warm-up, untimed
    while not plain or (args.trace and not traced) or (
        # stop before a pass of typical length would overrun the budget
        time.perf_counter() - started + statistics.median(p[0] for p in plain + traced) <= args.seconds
    ):
        if args.trace and len(traced) < len(plain):
            tracer.reset()
            with tracer.installed():
                seconds, calls, scale, out = run_pass(wl, traced_inputs)
            if out is not None:
                per_layer.append(tracer.metrics(out.op))
            traced.append((seconds, calls, scale))
        else:
            seconds, calls, scale, out = run_pass(wl, inputs, sampler)
            plain.append((seconds, calls, scale))
        values = wl.values(out) if out is not None else None
        first_values = first_values or values
        ops = wl.check(values, ref) if values is not None else [W.Op("pass", False, float("inf"), "raised")]
        all_ops.extend(ops)

    failed = [o for o in all_ops if not o.passed]
    known = [o for o in failed if o.known_defect]
    correct = len(known) == len(failed)
    print(f"passes: {len(plain)} untraced, {len(traced)} traced; operations: {len(all_ops)}")
    if len(ops) <= 20:
        for o in ops:
            print(f"  op {o.name}: {'ok' if o.passed else 'FAILED'}, {o.detail}")
    else:
        print(f"  {len(ops)} ops per pass, worst rel err {max(o.rel_err for o in ops):.3g}")
    for o in [o for o in failed if not o.known_defect][:10]:
        print(f"  FAILED {o.name}: {o.detail}")
    if known:
        worst = max(o.rel_err for o in known)
        print(f"known defect reproduces ({W.KNOWN_DEFECT}): {sorted({o.name for o in known})}, ref_err {worst:.3g}")

    if first_values is None:
        correct = False
    else:
        for label, caught in W.self_check(wl, first_values, ref):
            print(f"self-check {'ok' if caught else 'MISSED'}: {label}")
            correct = correct and caught

    if args.trace:
        repeat = all(m[k] == per_layer[0][k] for m in per_layer for k in EXACT) if per_layer else False
        correct = correct and repeat
        print(f"traced counts repeat across {len(per_layer)} traced passes: {repeat}")
        print_spans(tracer)
        metrics = per_layer_metrics(per_layer, plain, traced, EXACT, UNITS)
    else:
        ref_err = max(o.rel_err for o in all_ops)
        metrics = end_to_end_metrics(setup, plain, ref_err, len(all_ops), len(failed))
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(all_ops), "failed": len(failed), "metrics": metrics}))


def end_to_end_metrics(setup, plain, ref_err, attempted, failed):
    setup_s, setup_runs = setup
    normalised = [[t * k for t, k in calls] for _, calls, _ in plain]
    p50s = [statistics.median(lat) for lat in normalised]
    tails = [tail(lat) for lat in normalised]
    print(f"setup seconds: {[round(t, 4) for t in setup_runs]}")
    print(f"pass seconds, raw: {[round(s, 3) for s, _, _ in plain]}")
    print(f"host scale: {[round(scale, 3) for _, _, scale in plain]}")
    print(f"call p50 ms, normalised: {[round(1e3 * t, 3) for t in p50s]}")
    print(f"calls per pass: {len(plain[0][1])}; tail percentile: {tails[0][1]}")
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "pipeline_s": {"value": statistics.median(s * scale for s, _, scale in plain), "unit": "s"},
        "query_p50_ms": {"value": 1e3 * statistics.median(p50s), "unit": "ms"},
        "query_tail_ms": {"value": 1e3 * statistics.median(t for t, _ in tails), "unit": "ms"},
        "ref_err": {"value": ref_err, "unit": "1"},
        "ok_frac": {"value": (attempted - failed) / attempted, "unit": "1"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
    }


def print_spans(tracer):
    print("kernels: not measured (dichokit.kernels has no callers)")
    print("spans of the last traced pass (name <- parent: calls, total s, self s):")
    for (name, parent), (calls, total, self_s) in sorted(tracer.spans.items(), key=lambda kv: -kv[1][1]):
        print(f"  {name} <- {parent}: {calls}, {total:.4f}, {self_s:.4f}")


def per_layer_metrics(per_layer, plain, traced, exact, units):
    """Counts from the first traced pass, median times over traced passes."""
    metrics = {}
    for name, unit in units.items():
        values = [m[name] for m in per_layer] or [0.0]
        metrics[name] = {"value": values[0] if name in exact else statistics.median(values), "unit": unit}
    overhead = statistics.median(p[0] for p in traced) - statistics.median(p[0] for p in plain)
    metrics["bench.trace_overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


if __name__ == "__main__":
    main()
