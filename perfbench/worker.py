"""Run one workload in this process and print its result as one JSON line.

``run.py`` starts this script in a fresh process with single-threaded
BLAS; run that instead. With ``--setup-only`` the worker builds its
inputs, prints when it became ready and exits.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import mvreport  # noqa: E402
import mvreport.cli  # noqa: E402,F401  (every module the tracer patches is loaded before it installs)
import tracer  # noqa: E402
import workloads  # noqa: E402


def percentile(values, q: int) -> float:
    """The q-th percentile, interpolated between the closest samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(results: list, cycles: list) -> dict:
    """Every end-to-end metric but ``setup_s``, from the timed operations."""
    out = {"cycle_s": statistics.median(cycles) if cycles else math.nan}
    for op in (1, 2):
        done = [r for r in results if r.op == op and not math.isnan(r.seconds)]
        ms = [1000.0 * r.seconds for r in done]
        out[f"op{op}_ms_p50"] = statistics.median(ms) if ms else math.nan
        out[f"op{op}_ms_p90"] = percentile(ms, 90) if ms else math.nan
        seconds = sum(r.seconds for r in done)
        out[f"op{op}_per_s"] = sum(r.items for r in done) / seconds if seconds else math.nan
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def run_untraced(work, seconds: float):
    """Closed loop of cycles; stops before a cycle that would end after ``seconds``."""
    results, cycles, walls = [], [], []
    start = time.perf_counter()
    k = 0
    while True:
        began = time.perf_counter()
        ops = work.cycle(k)
        work.check(k, ops)
        walls.append(time.perf_counter() - began)
        results.extend(ops)
        if all(not math.isnan(r.seconds) for r in ops):
            cycles.append(sum(r.seconds for r in ops))
        k += 1
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            results[-1].errors.extend(work.run_errors(results))
            return results, end_to_end(results, cycles)


def run_traced(work, seconds: float):
    """Repeat the first ``trace_cycles`` cycles untraced, then traced, while time lasts.

    Every repetition does the same work, so per-cycle counts repeat
    exactly on a given seed. The overhead compares the wall time of the
    traced and untraced passes over the same cycles.
    """
    spans = tracer.Tracer()
    results, plain, traced = [], [], []
    start = time.perf_counter()
    while True:
        for walls, context in ((plain, contextlib.nullcontext), (traced, lambda: spans)):
            elapsed = 0.0
            for k in range(work.trace_cycles):
                began = time.perf_counter()
                with context():
                    ops = work.cycle(k)
                elapsed += time.perf_counter() - began
                work.check(k, ops)
                results.extend(ops)
            walls.append(elapsed)
        if time.perf_counter() - start + plain[-1] + traced[-1] > seconds:
            break
    results[-1].errors.extend(work.run_errors(results))
    metrics = spans.metrics(cycles=len(traced) * work.trace_cycles)
    metrics["trace.overhead_pct"] = 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)
    return results, metrics


def environment() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: f"{deps[k].get('name')} {deps[k].get('version')}" for k in ("blas", "lapack") if k in deps}
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SCALES), default="full")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    source = Path(mvreport.__file__).resolve()
    if not source.is_relative_to(ROOT / "src"):
        print(f"mvreport was imported from {source}, not from this checkout", file=sys.stderr)
        return 2
    work_dir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        work = workloads.build(args.workload, args.seed, workloads.SCALES[args.scale], work_dir)
        ready = time.time()
        if args.setup_only:
            print(json.dumps({"ready": ready}))
            return 0
        run = run_traced if args.trace else run_untraced
        results, metrics = run(work, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    errors = [e for r in results for e in r.errors]
    for message in errors[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({
        "ready": ready,
        "attempted": len(results),
        "failed": sum(1 for r in results if not r.ok),
        "samples": {f"op{op}": sum(1 for r in results if r.op == op) for op in (1, 2)},
        "metrics": {k: (None if isinstance(v, float) and math.isnan(v) else v) for k, v in metrics.items()},
        "environment": environment(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
