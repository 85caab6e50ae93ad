"""Tests of the benchmark itself, on tiny inputs.

Run from the root of the repository: ``python3 -m pytest perfbench/tests``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import worker
import workloads

BENCH = Path(run.__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def patched_names() -> list:
    """Every ``mvreport`` binding, class attributes included, that is still a tracer wrapper."""
    found = []
    for name, module in sorted(sys.modules.items()):
        if module is None or not name.startswith("mvreport"):
            continue
        for attr, value in vars(module).items():
            if hasattr(value, tracer.WRAPPED_MARK):
                found.append(f"{name}.{attr}")
            if isinstance(value, type) and value.__module__ == name:
                found.extend(f"{name}.{attr}.{m}" for m, v in vars(value).items() if hasattr(v, tracer.WRAPPED_MARK))
    return found


def bench(cwd, workload, trace=0, seed=0):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, (json.loads(lines[-1]) if lines else None)


def test_spec_names_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    layer_names = [m["name"] for m in SPEC["per_layer"]]
    assert layer_names == list(tracer.Tracer().metrics(cycles=1)) + ["trace.overhead_pct"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_output_schema(workload, trace):
    proc, result = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_restores_every_binding():
    import mvreport.kgrg
    import mvreport.training

    before = {name: dict(vars(module)) for name, module in sys.modules.items()
              if name.startswith("mvreport") and module is not None}
    methods = (mvreport.autodiff.Tensor.backward, mvreport.optim.AdamW.step, mvreport.rng.Rng.normal)
    spans = tracer.Tracer()
    with spans:
        # bindings made by `from .kgrg import generate` are patched too
        assert hasattr(mvreport.training.generate, tracer.WRAPPED_MARK)
        assert hasattr(mvreport.kgrg.multi_view_fuse, tracer.WRAPPED_MARK)
        assert patched_names()
    work = workloads.TrainLargeBatch(0, workloads.SCALES["tiny"])
    worker.run_traced(work, seconds=0.1)
    assert patched_names() == []
    for name, namespace in before.items():
        now = vars(sys.modules[name])
        assert all(now[k] is v for k, v in namespace.items() if k in now), name
    assert (mvreport.autodiff.Tensor.backward, mvreport.optim.AdamW.step, mvreport.rng.Rng.normal) == methods


def test_traced_counts_repeat_exactly():
    def counts():
        work = workloads.DecodeLong(3, workloads.SCALES["tiny"])
        _, metrics = worker.run_traced(work, seconds=0.1)
        return {k: v for k, v in metrics.items() if k in tracer.COUNT_METRICS}

    first = counts()
    assert first == counts()
    n = workloads.SCALES["tiny"]["decode_max_tokens"]
    # greedy decoding re-runs the whole prefix at every step
    assert first["kgrg.generate.greedy_positions"] == n * (n + 1) / 2
    assert first["kgrg.decoder_forward.graph_nodes"] > 0


def test_scatter_bytes_grow_with_batch_size():
    def scatter(batch):
        work = workloads.TrainLargeBatch(0, dict(workloads.SCALES["tiny"], train_batch=batch))
        _, metrics = worker.run_traced(work, seconds=0.1)
        return metrics["autodiff.tape.scatter_zero_bytes"]

    # the per-study narrow loops make the zeros_like bytes grow faster than B
    assert scatter(32) > 4 * 1.5 * scatter(8)


def copy_checkout(dest: Path, with_program=True) -> Path:
    shutil.copytree(BENCH, dest / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    if with_program:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def test_failed_check_fails_the_command(tmp_path):
    checkout = copy_checkout(tmp_path)
    kgrg = checkout / "src" / "mvreport" / "kgrg.py"
    kgrg.write_text(kgrg.read_text() + (
        "\n_rescore = teacher_forced_logprobs\n"
        "def teacher_forced_logprobs(*args, **kwargs):\n"
        "    return _rescore(*args, **kwargs) + 1.0\n"
    ))
    proc, result = bench(checkout, "decode_long")
    assert proc.returncode == 1
    assert result["correct"] is False and result["failed"] > 0
    assert "teacher-forced logprobs differ" in proc.stderr


def test_without_the_program_the_command_fails(tmp_path):
    checkout = copy_checkout(tmp_path, with_program=False)
    proc, result = bench(checkout, "train_large_batch")
    assert proc.returncode != 0
    assert result is None
