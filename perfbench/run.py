"""mvreport benchmark: run one workload and print its metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload decode_long --seed 0 --seconds 38 --trace 0

Each workload runs in a fresh worker process with single-threaded BLAS.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: end-to-end metrics
with ``--trace 0``, per-layer metrics with ``--trace 1``. The line before
it records the environment, the source revision and the seed. The exit
code is 0 only when every operation and every output check passed.
``--workload all`` runs the three workloads one after another.
See perfbench/README.md for what each workload and metric measures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("train_large_batch", "decode_long", "pipeline_cold")
SETUP_SAMPLES = 7  # setup_s is the median of this many fresh processes
SETUP_TIMEOUT_S = 60
WORKER_GRACE_S = 100  # allowance beyond --seconds before a worker is killed

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cycle_s": "s",
    "op1_ms_p50": "ms",
    "op2_ms_p50": "ms",
    "op1_per_s": "1/s",
    "op2_per_s": "1/s",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("ms"):
        return "ms"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("_pct"):
        return "%"
    return "count"


class WorkerFailed(Exception):
    pass


def run_worker(root: Path, env: dict, args: list, timeout: float) -> dict:
    """Start a worker, wait for it, and return its last stdout line as JSON."""
    started = time.time()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], cwd=root, env=env,
                              stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as err:
        raise WorkerFailed(f"worker {args} did not finish within {timeout:.0f} s") from err
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker {args} exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - started
    return result


def source_revision(root: Path) -> dict:
    """The git commit when the checkout is a repository, and a hash of the program's sources."""
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "mvreport").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


def run_workload(root: Path, env: dict, workload: str, seed: int, seconds: float, trace: int, scale: str) -> dict:
    worker_args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(trace), "--scale", scale]
    result = run_worker(root, env, worker_args, seconds + WORKER_GRACE_S)
    metrics = result["metrics"]
    if not trace:
        setup = [result["setup_s"]]
        for _ in range(SETUP_SAMPLES - 1):
            setup.append(run_worker(root, env, worker_args + ["--setup-only"], SETUP_TIMEOUT_S)["setup_s"])
        metrics["setup_s"] = statistics.median(setup)
        metrics["setup_samples_s"] = setup
        names = list(END_TO_END_UNITS)
    else:
        names = list(metrics)
    print(json.dumps({
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "scale": scale,
        "samples": result["samples"], "environment": result["environment"], **source_revision(root),
        **({"p90_ms": {k: v for k, v in metrics.items() if k.endswith("_p90")},
            "setup_samples_s": metrics["setup_samples_s"]} if not trace else {}),
    }))
    units = END_TO_END_UNITS if not trace else {name: per_layer_unit(name) for name in names}
    return {
        "correct": result["failed"] == 0 and all(metrics[n] is not None for n in names),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in names},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny runs small inputs for the benchmark's own tests")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "mvreport" / "__init__.py").is_file():
        print(f"no mvreport sources under {root / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(root, env, name, args.seed, args.seconds, args.trace, args.scale)
    except WorkerFailed as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        for name, result in results.items():
            print(json.dumps({"workload": name, **result}))
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
