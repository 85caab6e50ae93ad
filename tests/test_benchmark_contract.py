"""The benchmark in ``perfbench/`` calls the program by name, and its tracer
wraps functions by name and binds their arguments. These tests run its
three workloads once at the tiny scale, untraced and traced, so that a
renamed or re-signed public function fails here and not in a benchmark run."""

import importlib.util
import sys
from pathlib import Path

import pytest

import mvreport.cli  # noqa: F401  (loads every module the tracer patches)

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
workloads = _load("workloads")


def test_tracer_resolves_every_target():
    spans = tracer.Tracer().install()
    spans.uninstall()
    assert not any(hasattr(value, tracer.WRAPPED_MARK)
                   for name, module in sys.modules.items() if name.startswith("mvreport")
                   for value in vars(module).values())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_cycle_runs_untraced_and_traced(tmp_path, name):
    work = workloads.build(name, seed=0, scale=workloads.SCALES["tiny"], work_dir=tmp_path)
    for traced in (False, True):
        spans = tracer.Tracer()
        if traced:
            spans.install()
        try:
            results = work.cycle(0)
            work.check(0, results)
        finally:
            spans.uninstall()
        assert [r.errors for r in results] == [[], []], f"traced={traced}"
        if traced:
            assert spans.calls, "the tracer recorded no span"
