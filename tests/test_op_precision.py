"""Per-op float32 precision against float64 on the same float32-rounded inputs.

Each op's float32 output and gradients are compared with a float64 run on
inputs rounded to float32 first, so the error measured is the op's own
arithmetic. Each ``*_REFERENCE`` holds the relative errors read at seed 0,
and every error may be at most ``FACTOR`` times its reference: over seeds
0-9 the largest error was 1.33x its seed-0 value (the conv bias gradient;
for layer_norm, 1.31x, and for affine, 1.27x, also the bias gradients). The softmax errors spread
less, at most 1.05x over seeds 0-9, so they take ``SOFTMAX_FACTOR``.
tmean and l2_normalize spread at most 1.11x. cross_entropy_rows's errors
depend on a few values each, so its references are float32's machine
epsilon, not seed-0 readings; tmean's x gradient is exact.
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
# affine at x [256, 11, 64], w [64, 64]: the bias gradient sums 256 * 11 = 2816 rows
AFFINE_REFERENCE = {"out": 1.119e-7, "x": 1.430e-7, "w": 3.647e-7, "b": 2.196e-8}
# softmax_rows and log_softmax_rows at tape shapes of a B=256 step: text
# attention scores with PAD keys masked, the MPC's off-diagonal view
# similarities at temperature 0.5, and the LM's logits over a vocabulary of
# 37: (shape, temperature, input std, masked)
SOFTMAX_CASES = {
    "attention": ((256, 24, 24), 1.0, 1.0, True),
    "mpc": ((416, 415), 0.5, 0.5, False),
    "lm": ((256, 11, 37), 1.0, 2.0, False),
}
SOFTMAX_FACTOR = 1.5
SOFTMAX_REFERENCE = {
    ("softmax_rows", "attention"): {"out": 4.968e-8, "x": 6.494e-8},
    ("softmax_rows", "mpc"): {"out": 6.472e-8, "x": 7.434e-8},
    ("softmax_rows", "lm"): {"out": 4.310e-8, "x": 6.550e-8},
    ("log_softmax_rows", "attention"): {"out": 3.582e-8, "x": 4.202e-8},
    ("log_softmax_rows", "mpc"): {"out": 3.220e-8, "x": 2.910e-8},
    ("log_softmax_rows", "lm"): {"out": 3.550e-8, "x": 4.132e-8},
}


# cross_entropy_rows at the MPC's [416, 415] (100 three-view and 58 two-view
# studies; q is a softmax at temperature 0.5): its tsum adds all 172 640
# entries. The output is one scalar, and the q gradient's norm is set by the
# few entries where p is nonzero and q smallest, so each error depends on
# where a few values fall between two float32 numbers: over seeds 0-29 the
# output read 4.8e-9 to 1.17e-7, and over seeds 0-19 the q gradient 2.2e-8
# to 8.9e-8. Both references are float32's machine epsilon.
CROSS_ENTROPY_REFERENCE = {"out": 2.0 ** -23, "q": 2.0 ** -23}
# tmean over axis 1 at [505, 16, 64] (a view's mean over its 16 positions):
# the x gradient is g / 16 broadcast, exact in float32
TMEAN_REFERENCE = {"out": 2.536e-8, "x": 0.0}
# l2_normalize at [256, 64] (the global embeddings): each row sums 64 products
L2_NORMALIZE_REFERENCE = {"out": 3.729e-8, "x": 4.649e-8}


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


def affine_errors(seed: int) -> dict:
    """Relative float32 error of affine's output and its x, w and b gradients."""
    rng = Rng(seed)
    x = np.asarray(rng.normal((256, 11, 64)), dtype=np.float32)
    w = np.asarray(rng.normal((64, 64), std=1 / 8), dtype=np.float32)
    b = np.asarray(rng.normal((64,)), dtype=np.float32)
    g = np.asarray(rng.normal((256, 11, 64)), dtype=np.float32)
    return float32_errors(ad.affine, (x, w, b), g, AFFINE_REFERENCE)


def softmax_errors(op: str, case: str, seed: int, offset: float = 0.0) -> dict:
    """Relative float32 error of ``op``'s output and x gradient at ``case``,
    on inputs shifted by ``offset``. Where keys are masked, the output and
    the upstream gradient are zeroed there: log_softmax_rows's masked
    outputs are not meaningful, and no loss reads them."""
    shape, temperature, std, masked = SOFTMAX_CASES[case]
    rng = Rng(seed)
    x = np.asarray(rng.normal(shape, std=std) + offset, dtype=np.float32)
    g = np.asarray(rng.normal(shape), dtype=np.float32)
    if masked:  # each report keeps 11 to 24 of its 24 positions
        lengths = 11 + np.minimum(np.abs(rng.normal((shape[0],))) * 6, 13).astype(int)
        keep = (np.arange(shape[-1]) < lengths[:, None])[:, None, :]
        return float32_errors(lambda t: getattr(ad, op)(t, temperature, keep) * keep, (x,), g * keep, ("out", "x"))
    return float32_errors(lambda t: getattr(ad, op)(t, temperature), (x,), g, ("out", "x"))


def cross_entropy_errors(seed: int) -> dict:
    """Relative float32 error of cross_entropy_rows's output and q gradient
    against the MPC's constant target."""
    rng = Rng(seed)
    study = np.repeat(np.arange(158), [3] * 100 + [2] * 58)
    same = study[:, None] == study[None, :]
    off_diag = ~np.eye(416, dtype=bool)
    p = same[off_diag].reshape(416, 415).astype(np.float32)
    p /= p.sum(axis=1, keepdims=True)
    z = np.asarray(rng.normal((416, 415), std=0.5), dtype=np.float64) / 0.5
    q = np.exp(z - z.max(axis=1, keepdims=True))
    q = (q / q.sum(axis=1, keepdims=True)).astype(np.float32)
    g = np.asarray(rng.normal(()), dtype=np.float32)
    return float32_errors(lambda t: ad.cross_entropy_rows(ad.constant(p, dtype=t.dtype), t), (q,), g, ("out", "q"))


def tmean_errors(seed: int) -> dict:
    """Relative float32 error of tmean's output and x gradient over axis 1."""
    rng = Rng(seed)
    x = np.asarray(rng.normal((505, 16, 64)), dtype=np.float32)
    g = np.asarray(rng.normal((505, 64)), dtype=np.float32)
    return float32_errors(lambda t: ad.tmean(t, axis=1), (x,), g, ("out", "x"))


def l2_normalize_errors(seed: int) -> dict:
    """Relative float32 error of l2_normalize's output and x gradient."""
    rng = Rng(seed)
    x = np.asarray(rng.normal((256, 64)), dtype=np.float32)
    g = np.asarray(rng.normal((256, 64)), dtype=np.float32)
    return float32_errors(ad.l2_normalize, (x,), g, ("out", "x"))


def over_bound(errors: dict, reference: dict, factor: float = FACTOR) -> list:
    return [name for name, err in errors.items() if err > factor * reference[name]]


def sum64_in_storage_dtype(monkeypatch):
    monkeypatch.setattr(ad, "_sum64", lambda x, axis=None, keepdims=False: x.sum(axis=axis, keepdims=keepdims))


def softmax_without_row_max_shift(monkeypatch):
    def unshifted(x, temperature, key_mask):
        z = x / temperature
        return z if key_mask is None else np.where(key_mask, z, ad.NEG_INF)

    monkeypatch.setattr(ad, "_shifted_logits", unshifted)


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


@pytest.mark.parametrize("seed", range(5))
def test_affine_float32_error_stays_within_factor_of_reference(seed):
    assert over_bound(affine_errors(seed), AFFINE_REFERENCE) == []


def test_affine_precision_check_catches_sum64_in_storage_dtype(monkeypatch):
    """Summing the bias gradient's 2816 rows in float32 instead of float64
    breaks the bias bound (about 39x its reference at seed 0)."""
    sum64_in_storage_dtype(monkeypatch)
    assert over_bound(affine_errors(0), AFFINE_REFERENCE) == ["b"]


@pytest.mark.parametrize("seed,offset", [(seed, 0.0) for seed in range(5)] + [(0, 30.0)])
@pytest.mark.parametrize("op,case", SOFTMAX_REFERENCE)
def test_softmax_float32_error_stays_within_factor_of_reference(op, case, seed, offset):
    errors = softmax_errors(op, case, seed, offset)
    assert over_bound(errors, SOFTMAX_REFERENCE[op, case], SOFTMAX_FACTOR) == []


def test_softmax_precision_check_catches_sum64_in_storage_dtype(monkeypatch):
    """Summing each row's 37 exponentials, and the backward's row sums, in
    float32 breaks softmax_rows's bounds at the LM shape (about 1.9x and
    1.8x their references at seed 0). The other cases move 1.5x or less."""
    sum64_in_storage_dtype(monkeypatch)
    assert over_bound(softmax_errors("softmax_rows", "lm", 0), SOFTMAX_REFERENCE["softmax_rows", "lm"],
                      SOFTMAX_FACTOR) == ["out", "x"]


def test_softmax_precision_check_catches_a_missing_row_max_shift(monkeypatch):
    """Without the row-max shift, log_softmax_rows's x gradient at the LM
    shape breaks its bound (about 1.7x at seed 0), and at logits offset by
    30 both its bounds break on every case (7x to 11x). softmax_rows moves
    1.12x or less at either offset: its float32 exp overflows only past 88."""
    softmax_without_row_max_shift(monkeypatch)
    assert over_bound(softmax_errors("log_softmax_rows", "lm", 0), SOFTMAX_REFERENCE["log_softmax_rows", "lm"],
                      SOFTMAX_FACTOR) == ["x"]
    for case in SOFTMAX_CASES:
        errors = softmax_errors("log_softmax_rows", case, 0, offset=30.0)
        assert over_bound(errors, SOFTMAX_REFERENCE["log_softmax_rows", case], SOFTMAX_FACTOR) == ["out", "x"]


REDUCTION_CASES = {
    "cross_entropy_rows": (cross_entropy_errors, CROSS_ENTROPY_REFERENCE),
    "tmean": (tmean_errors, TMEAN_REFERENCE),
    "l2_normalize": (l2_normalize_errors, L2_NORMALIZE_REFERENCE),
}


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("op", REDUCTION_CASES)
def test_reduction_float32_error_stays_within_factor_of_reference(op, seed):
    errors_at, reference = REDUCTION_CASES[op]
    assert over_bound(errors_at(seed), reference) == []


def test_reduction_precision_checks_against_sum64_in_storage_dtype(monkeypatch):
    """Summed in float32, tmean's 16 rows per output break its output bound
    (about 3x its reference at seed 0). The other two sums run along the
    contiguous last axis or over the whole array, where NumPy sums float32
    pairwise: cross_entropy_rows's q gradient does not move and its output
    error stays under float32's machine epsilon (seeds 0-9), and
    l2_normalize moves 1.09x, so neither catches this mutant."""
    sum64_in_storage_dtype(monkeypatch)
    caught = {op: over_bound(errors_at(0), reference) for op, (errors_at, reference) in REDUCTION_CASES.items()}
    assert caught == {"cross_entropy_rows": [], "tmean": ["out"], "l2_normalize": []}


# The backward of narrow, concat, take_last and gather_rows (all ids
# distinct) only moves upstream values into zeros, so in float32 it equals
# the float64 reference rounded to float32 exactly. Shapes are the tape's at
# B=256: the per-view feature maps [531, 16, 64], the LM's logits
# [256, 11, 37], and the fusion's 256 anchor rows of 531 views.
def float32_gradients_equal_rounded_float64(op, arrays, upstream: np.ndarray) -> bool:
    """Whether ``op``'s float32 output and input gradients, under the loss
    ``sum(out * upstream)``, equal the float64 ones rounded to float32, byte for byte."""
    results = []
    for dtype in (np.float32, np.float64):
        inputs = [ad.parameter(a, dtype=dtype) for a in arrays]
        out = op(*inputs)
        ad.tsum(out * ad.constant(upstream, dtype=dtype)).backward()
        results.append([a.astype(np.float32).tobytes() for a in (out.data, *(t.grad for t in inputs))])
    return results[0] == results[1]


def exact_cases(seed: int) -> dict:
    """Per op: the op, its float32 inputs and the upstream gradient."""
    rng = Rng(seed)

    def normal(shape):
        return np.asarray(rng.normal(shape), dtype=np.float32)

    views = normal((531, 16, 64))
    logits = normal((256, 11, 37))
    picked = np.minimum(np.abs(rng.normal((256, 11))) * 12, 36).astype(np.int64)
    anchors = np.sort(np.argsort(rng.normal((531,)))[:256])  # 256 distinct rows
    parts = [normal((length, 16, 64)) for length in (200, 131, 200)]
    return {
        "narrow": (lambda t: ad.narrow(t, 0, 100, 300), [views], normal((300, 16, 64))),
        "concat": (lambda *ts: ad.concat(ts, axis=0), parts, normal((531, 16, 64))),
        "take_last": (lambda t: ad.take_last(t, picked), [logits], normal((256, 11))),
        "gather_rows": (lambda t: ad.gather_rows(t, anchors), [views], normal((256, 16, 64))),
    }


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("op", ["narrow", "concat", "take_last", "gather_rows"])
def test_selection_backward_in_float32_equals_rounded_float64(op, seed):
    fn, arrays, upstream = exact_cases(seed)[op]
    assert float32_gradients_equal_rounded_float64(fn, arrays, upstream)
