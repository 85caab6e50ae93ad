"""Per-op float32 precision against float64 on the same float32-rounded inputs.

Each op's float32 output and gradients are compared with a float64 run on
inputs rounded to float32 first, so the error measured is the op's own
arithmetic. Each ``*_REFERENCE`` holds the relative errors read at seed 0,
and every error may be at most ``FACTOR`` times its reference: over seeds
0-9 the largest error was 1.33x its seed-0 value (the conv bias gradient;
for layer_norm, 1.31x, also the bias gradient).
"""

import numpy as np
import pytest

from mvreport import autodiff as ad
from mvreport.rng import Rng

FACTOR = 2.0

# conv2d at x [32, 32, 32, 16], w [32, 16, 3, 3], stride 2, padding 1: the
# bias gradient sums 32 * 16 * 16 = 8192 rows
CONV_REFERENCE = {"out": 1.488e-7, "x": 1.084e-7, "w": 3.711e-7, "b": 2.565e-8}
# layer_norm at x [256, 24, 64]: the gain and bias gradients sum 256 * 24 = 6144 rows
LAYER_NORM_REFERENCE = {"out": 5.741e-8, "x": 5.907e-8, "gain": 5.389e-8, "bias": 2.388e-8}


def relative_error(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.linalg.norm(got.astype(np.float64) - want) / np.linalg.norm(want))


def float32_errors(op, arrays, upstream: np.ndarray, names) -> dict:
    """Relative float32 error of ``op``'s output and of the gradient of each
    of its inputs ``arrays``, under the loss ``sum(out * upstream)``."""
    results = []
    for dtype in (np.float32, np.float64):
        inputs = [ad.parameter(a, dtype=dtype) for a in arrays]
        out = op(*inputs)
        ad.tsum(out * ad.constant(upstream, dtype=dtype)).backward()
        results.append((out.data, *(t.grad for t in inputs)))
    return {name: relative_error(got, want) for name, got, want in zip(names, *results)}


def conv2d_errors(seed: int) -> dict:
    """Relative float32 error of conv2d's output and its x, w and b gradients."""
    rng = Rng(seed)
    x = np.asarray(rng.normal((32, 32, 32, 16)), dtype=np.float32)
    w = np.asarray(rng.normal((32, 16, 3, 3), std=1 / 12), dtype=np.float32)
    b = np.asarray(rng.normal((32,)), dtype=np.float32)
    g = np.asarray(rng.normal((32, 16, 16, 32)), dtype=np.float32)
    return float32_errors(lambda *t: ad.conv2d(*t, stride=2, padding=1), (x, w, b), g, CONV_REFERENCE)


def layer_norm_errors(seed: int) -> dict:
    """Relative float32 error of layer_norm's output and its x, gain and bias gradients."""
    rng = Rng(seed)
    x = np.asarray(rng.normal((256, 24, 64)), dtype=np.float32)
    gain = np.asarray(rng.normal((64,), std=0.1) + 1.0, dtype=np.float32)
    bias = np.asarray(rng.normal((64,), std=0.1), dtype=np.float32)
    g = np.asarray(rng.normal((256, 24, 64)), dtype=np.float32)
    return float32_errors(ad.layer_norm, (x, gain, bias), g, LAYER_NORM_REFERENCE)


def over_bound(errors: dict, reference: dict) -> list:
    return [name for name, err in errors.items() if err > FACTOR * reference[name]]


def sum64_in_storage_dtype(monkeypatch):
    monkeypatch.setattr(ad, "_sum64", lambda x, axis=None, keepdims=False: x.sum(axis=axis, keepdims=keepdims))


@pytest.mark.parametrize("seed", range(5))
def test_conv2d_float32_error_stays_within_factor_of_reference(seed):
    assert over_bound(conv2d_errors(seed), CONV_REFERENCE) == []


def test_conv2d_precision_check_catches_sum64_in_storage_dtype(monkeypatch):
    """Summing the bias gradient's 8192 rows in float32 instead of float64
    breaks the bias bound (about 70x its reference at seed 0)."""
    sum64_in_storage_dtype(monkeypatch)
    assert over_bound(conv2d_errors(0), CONV_REFERENCE) == ["b"]


@pytest.mark.parametrize("seed", range(5))
def test_layer_norm_float32_error_stays_within_factor_of_reference(seed):
    assert over_bound(layer_norm_errors(seed), LAYER_NORM_REFERENCE) == []


def test_layer_norm_precision_check_catches_sum64_in_storage_dtype(monkeypatch):
    """Summing the gain and bias gradients' 6144 rows in float32 instead of
    float64 breaks both bounds (about 23x and 56x their references at seed 0)."""
    sum64_in_storage_dtype(monkeypatch)
    assert over_bound(layer_norm_errors(0), LAYER_NORM_REFERENCE) == ["gain", "bias"]
