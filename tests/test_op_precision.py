"""Per-op float32 precision against float64 on the same float32-rounded inputs.

Each op's float32 output and gradients are compared with a float64 run on
inputs rounded to float32 first, so the error measured is the op's own
arithmetic. ``REFERENCE`` holds the relative errors read at seed 0, and
every error may be at most ``FACTOR`` times its reference: over seeds 0-9
the largest error was 1.33x its seed-0 value (the conv bias gradient).
"""

import numpy as np
import pytest

from mvreport import autodiff as ad
from mvreport.rng import Rng

FACTOR = 2.0

# conv2d at x [32, 32, 32, 16], w [32, 16, 3, 3], stride 2, padding 1: the
# bias gradient sums 32 * 16 * 16 = 8192 rows
CONV_REFERENCE = {"out": 1.488e-7, "x": 1.084e-7, "w": 3.711e-7, "b": 2.565e-8}


def relative_error(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.linalg.norm(got.astype(np.float64) - want) / np.linalg.norm(want))


def conv2d_errors(seed: int) -> dict:
    """Relative float32 error of conv2d's output and its x, w and b gradients."""
    rng = Rng(seed)
    x = np.asarray(rng.normal((32, 32, 32, 16)), dtype=np.float32)
    w = np.asarray(rng.normal((32, 16, 3, 3), std=1 / 12), dtype=np.float32)
    b = np.asarray(rng.normal((32,)), dtype=np.float32)
    g = np.asarray(rng.normal((32, 16, 16, 32)), dtype=np.float32)
    results = []
    for dtype in (np.float32, np.float64):
        xt, wt, bt = (ad.parameter(a, dtype=dtype) for a in (x, w, b))
        out = ad.conv2d(xt, wt, bt, stride=2, padding=1)
        ad.tsum(out * ad.constant(g, dtype=dtype)).backward()
        results.append((out.data, xt.grad, wt.grad, bt.grad))
    return {name: relative_error(got, want) for name, got, want in zip(CONV_REFERENCE, *results)}


def over_bound(errors: dict, reference: dict) -> list:
    return [name for name, err in errors.items() if err > FACTOR * reference[name]]


@pytest.mark.parametrize("seed", range(5))
def test_conv2d_float32_error_stays_within_factor_of_reference(seed):
    assert over_bound(conv2d_errors(seed), CONV_REFERENCE) == []


def test_conv2d_precision_check_catches_sum64_in_storage_dtype(monkeypatch):
    """Summing the bias gradient's 8192 rows in float32 instead of float64
    breaks the bias bound (about 70x its reference at seed 0)."""
    monkeypatch.setattr(ad, "_sum64", lambda x, axis=None, keepdims=False: x.sum(axis=axis, keepdims=keepdims))
    assert over_bound(conv2d_errors(0), CONV_REFERENCE) == ["b"]
