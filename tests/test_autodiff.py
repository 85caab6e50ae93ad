import inspect
import itertools
import math
import os
import signal
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mvreport import autodiff as ad
from mvreport.errors import (
    DimensionError,
    EmptyKeyError,
    GraphError,
    ParameterError,
)
from mvreport.rng import Rng

import conv_reference
import op_reference
from conftest import same_bytes
from gradcheck import check_grads
from op_reference import exp, relu

F64 = np.float64


def p64(rng, shape, scale=1.0):
    return ad.parameter(np.asarray(rng.normal(shape, std=scale), dtype=F64), dtype=F64)


def scalarize(t, rng):
    """Random fixed linear functional, so any op output becomes a scalar loss."""
    w = ad.constant(np.asarray(rng.normal(t.shape), dtype=F64), dtype=F64)
    return ad.tsum(t * w)


# -- forward semantics -------------------------------------------------------


def test_matmul_identity():
    x = np.arange(6, dtype=np.float32).reshape(2, 3)
    out = ad.matmul(ad.constant(np.eye(2)), ad.constant(x))
    np.testing.assert_allclose(out.data, x)


def test_matmul_hand_case():
    out = ad.matmul(ad.constant([[1.0, 2.0], [3.0, 4.0]]), ad.constant([[1.0], [1.0]]))
    np.testing.assert_allclose(out.data, [[3.0], [7.0]])


def test_matmul_shape_errors():
    with pytest.raises(DimensionError, match=r"\(2, 3\)"):
        ad.matmul(ad.constant(np.zeros((2, 3))), ad.constant(np.zeros((2, 3))))
    with pytest.raises(DimensionError):
        ad.matmul(ad.constant(np.zeros(3)), ad.constant(np.zeros((3, 2))))


def test_softmax_single_element_row():
    out = ad.softmax_rows(ad.constant([[5.0]]))
    np.testing.assert_allclose(out.data, [[1.0]])


def test_softmax_closed_form():
    out = ad.softmax_rows(ad.constant([[2.0, 0.0, 0.0]]))
    np.testing.assert_allclose(out.data, [[0.7870, 0.1065, 0.1065]], atol=1e-3)


def test_softmax_uniform_input():
    out = ad.softmax_rows(ad.constant(np.full((2, 5), 3.0)))
    np.testing.assert_allclose(out.data, np.full((2, 5), 0.2), atol=1e-6)


def test_softmax_rows_stochastic_extreme_temperatures():
    x = ad.constant(Rng(0).normal((4, 6), std=10.0))
    for temp in (1e-2, 1.0, 1e2):
        sums = ad.softmax_rows(x, temperature=temp).data.sum(axis=-1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-6)


def test_softmax_temperature_error():
    with pytest.raises(ParameterError):
        ad.softmax_rows(ad.constant([[1.0]]), temperature=0.0)
    with pytest.raises(ParameterError):
        ad.log_softmax_rows(ad.constant([[1.0]]), temperature=-1.0)


def test_layer_norm_scale_invariance():
    x = Rng(1).normal((3, 8), std=3.0)  # variance well above the eps guard
    g = ad.constant(np.ones(8))
    b = ad.constant(np.zeros(8))
    out1 = ad.layer_norm(ad.constant(x), g, b)
    out2 = ad.layer_norm(ad.constant(2.0 * x), g, b)
    np.testing.assert_allclose(out1.data, out2.data, atol=1e-5)


def test_layer_norm_constant_row_zeros():
    out = ad.layer_norm(ad.constant(np.full((2, 4), 7.0)),
                        ad.constant(np.ones(4)), ad.constant(np.zeros(4)))
    np.testing.assert_allclose(out.data, 0.0, atol=1e-6)


def _layer_norm_with_ndarray_mean(x, gain, bias, g):
    """layer_norm's output and its x, gain and bias gradients for upstream
    ``g``, in the ndarray.mean formulas the engine used before np.add.reduce."""
    mu = x.mean(axis=-1, keepdims=True, dtype=np.float64)
    var = ((x.astype(np.float64) - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = (1.0 / np.sqrt(var + ad.LN_EPS)).astype(x.dtype)
    xhat = ((x - mu.astype(x.dtype)) * inv).astype(x.dtype)
    dxhat = g * gain
    m1 = dxhat.mean(axis=-1, keepdims=True, dtype=np.float64).astype(x.dtype)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True, dtype=np.float64).astype(x.dtype)
    lead = tuple(range(g.ndim - 1))
    return (xhat * gain + bias, inv * (dxhat - m1 - xhat * m2),
            (g * xhat).sum(axis=lead, dtype=np.float64).astype(x.dtype),
            g.sum(axis=lead, dtype=np.float64).astype(x.dtype))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(1, 1, 64), (256, 11, 64), (7, 3, 5, 64), (4, 33), (3, 1)])
def test_layer_norm_bitwise_equals_ndarray_mean_formulas(shape, dtype):
    rng = Rng(15)
    x, g = (np.asarray(rng.normal(shape, std=2.0), dtype=dtype) for _ in range(2))
    gain = np.asarray(rng.normal(shape[-1:]), dtype=dtype)
    bias = np.asarray(rng.normal(shape[-1:]), dtype=dtype)
    xt, gt, bt = (ad.parameter(a, dtype=dtype) for a in (x, gain, bias))
    out = ad.layer_norm(xt, gt, bt)
    ad.tsum(out * ad.constant(g, dtype=dtype)).backward()
    for got, want in zip((out.data, xt.grad, gt.grad, bt.grad), _layer_norm_with_ndarray_mean(x, gain, bias, g)):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


def test_layer_norm_shape_error():
    with pytest.raises(DimensionError):
        ad.layer_norm(ad.constant(np.zeros((2, 4))), ad.constant(np.ones(3)), ad.constant(np.zeros(3)))


@pytest.mark.parametrize("dtype", [np.float32, F64])
@pytest.mark.parametrize("shape", [(6, 4), (3, 7, 4), (256, 24, 64), (178, 16, 64)])
def test_add_layer_norm_bitwise_equals_layer_norm_of_the_sum(shape, dtype):
    """The fused node gives the bytes of ``layer_norm(x + y)``: the output and
    the gradients of x, y, gain and bias."""
    rng = Rng(16)
    x, y, g = (np.asarray(rng.normal(shape, std=2.0), dtype=dtype) for _ in range(3))
    gain = np.asarray(rng.normal(shape[-1:]) + 1.0, dtype=dtype)
    bias = np.asarray(rng.normal(shape[-1:]), dtype=dtype)
    results = []
    for norm in (ad.add_layer_norm, lambda a, b, *affine: ad.layer_norm(a + b, *affine)):
        tensors = [ad.parameter(a, dtype=dtype) for a in (x, y, gain, bias)]
        out = norm(*tensors)
        ad.tsum(out * ad.constant(g, dtype=dtype)).backward()
        results.append((out.data, *(t.grad for t in tensors)))
    assert_same_bytes(*results, dtype)


def test_add_layer_norm_rejects_operands_of_different_shapes():
    gain, bias = ad.constant(np.ones(4)), ad.constant(np.zeros(4))
    with pytest.raises(DimensionError, match="add_layer_norm operands differ"):
        ad.add_layer_norm(ad.constant(np.zeros((2, 4))), ad.constant(np.zeros((1, 4))), gain, bias)
    with pytest.raises(DimensionError, match="add_layer_norm gain/bias"):
        ad.add_layer_norm(ad.constant(np.zeros((2, 4))), ad.constant(np.zeros((2, 4))), gain, ad.constant(np.zeros(3)))


def test_add_layer_norm_holds_no_sum():
    """At x [256, 24, 64] float32, the fused node holds its output and xhat
    (1.5 MiB each) plus one scale per row; ``layer_norm(x + y)`` also holds
    the sum, in the add node."""
    rng = Rng(17)
    x, y = (ad.parameter(np.asarray(rng.normal((256, 24, 64)), dtype=np.float32)) for _ in range(2))
    gain, bias = ad.parameter(np.ones(64, dtype=np.float32)), ad.parameter(np.zeros(64, dtype=np.float32))
    held = []
    for norm in (ad.add_layer_norm, lambda a, b, *affine: ad.layer_norm(a + b, *affine)):
        tracemalloc.start()
        try:
            out = norm(x, y, gain, bias)
            held.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        del out
    size = x.data.nbytes
    assert held[0] < 2.1 * size and held[1] > 3 * size, held


def test_l2_normalize_triangle():
    out = ad.l2_normalize(ad.constant([3.0, 4.0]))
    np.testing.assert_allclose(out.data, [0.6, 0.8], atol=1e-6)


def test_l2_normalize_idempotent_on_unit_vectors():
    v = ad.l2_normalize(ad.constant(Rng(2).normal((3, 5))))
    again = ad.l2_normalize(v)
    np.testing.assert_allclose(again.data, v.data, atol=1e-6)


def test_l2_normalize_zero_vector_guarded(caplog, monkeypatch):
    monkeypatch.setattr(ad, "_near_zero_norm_warned", False)
    with caplog.at_level("WARNING"):
        out = ad.l2_normalize(ad.constant(np.zeros((1, 3))))
        ad.l2_normalize(ad.constant(np.zeros((1, 3))))
    np.testing.assert_allclose(out.data, 0.0)
    assert sum("near-zero" in rec.getMessage() for rec in caplog.records) == 1


def test_attention_identical_values():
    v_row = np.array([1.0, -2.0, 3.0])
    k = ad.constant(Rng(3).normal((4, 3)))
    v = ad.constant(np.tile(v_row, (4, 1)))
    q = ad.constant(Rng(4).normal((2, 3)))
    out = ad.scaled_dot_attention(q, k, v)
    np.testing.assert_allclose(out.data, np.tile(v_row, (2, 1)), atol=1e-5)


def test_attention_single_key():
    q = ad.constant(Rng(5).normal((3, 2)))
    k = ad.constant([[0.3, -0.7]])
    v = ad.constant([[9.0, -1.0]])
    out = ad.scaled_dot_attention(q, k, v)
    np.testing.assert_allclose(out.data, np.tile([9.0, -1.0], (3, 1)), atol=1e-6)


def test_attention_hand_case():
    q = ad.constant(np.eye(2))
    k = ad.constant(np.eye(2))
    v = ad.constant([[1.0, 2.0], [3.0, 4.0]])
    out = ad.scaled_dot_attention(q, k, v)
    # weight on the matching key: 1 / (1 + e^(-1/sqrt(2))) = 0.6697617
    expected = [[1.6604766, 2.6604766], [2.3395234, 3.3395234]]
    np.testing.assert_allclose(out.data, expected, atol=1e-5)


def test_attention_empty_keys():
    with pytest.raises(EmptyKeyError):
        ad.scaled_dot_attention(ad.constant(np.zeros((1, 2))),
                                ad.constant(np.zeros((0, 2))),
                                ad.constant(np.zeros((0, 2))))


def test_attention_mask_blocks_keys():
    q = ad.constant(Rng(6).normal((2, 3)))
    k = ad.constant(Rng(7).normal((4, 3)))
    v = ad.constant(Rng(8).normal((4, 3)))
    out = ad.scaled_dot_attention(q, k, v, key_mask=np.array([True, False, True, False]))
    k_sub = ad.constant(k.data[[0, 2]])
    v_sub = ad.constant(v.data[[0, 2]])
    ref = ad.scaled_dot_attention(q, k_sub, v_sub)
    np.testing.assert_allclose(out.data, ref.data, atol=1e-5)
    with pytest.raises(ParameterError, match="key_mask must be boolean"):  # not the old additive form
        ad.scaled_dot_attention(q, k, v, key_mask=np.array([0.0, -1e9, 0.0, -1e9]))


def _with_additive_mask(op, x, mask, temperature):
    """``op`` under the masking the engine used before the softmax ops took
    ``key_mask``: NEG_INF added to masked logits as a constant."""
    return op(x + ad.constant(np.where(mask, 0.0, ad.NEG_INF), dtype=x.dtype), temperature=temperature)


@pytest.mark.parametrize("op", [ad.softmax_rows, ad.log_softmax_rows])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("temperature", [1.0, 0.5])
@pytest.mark.parametrize("layout", ["keys", "causal"])
def test_key_mask_bitwise_equals_additive_neg_inf(op, dtype, temperature, layout):
    rng = Rng(16)
    x, g = (np.asarray(rng.normal((3, 5, 5), std=3.0), dtype=dtype) for _ in range(2))
    real = np.array([[True] * 5, [True, True, True, False, False], [False] * 5])  # the last study is all PAD
    mask = real[:, None, :] if layout == "keys" else np.tri(5, dtype=bool) & real[:, None, :]  # [B,1,L] / [B,T,T]
    got_x, want_x = (ad.parameter(x, dtype=dtype) for _ in range(2))
    got = op(got_x, temperature=temperature, key_mask=mask)
    want = _with_additive_mask(op, want_x, mask, temperature)
    for out in (got, want):
        ad.tsum(out * ad.constant(g, dtype=dtype)).backward()
    masked = ~np.broadcast_to(mask, x.shape)
    live = np.broadcast_to(~masked.all(axis=-1, keepdims=True), x.shape)  # rows with an attendable key
    weights = got.data if op is ad.softmax_rows else np.exp(got.data)
    np.testing.assert_array_equal(weights[live & masked], 0.0)
    # in float32 an all-PAD row's x - 1e9 rounds to -1e9 at every key, so the
    # additive form is uniform there too; in float64 it leaks the row's logits
    equal = live | (dtype == np.float32)
    np.testing.assert_allclose(weights[~equal], 1 / 5)
    # log-softmax outputs at masked entries are not meaningful: only their exp, 0, is read
    read = equal & ~masked if op is ad.log_softmax_rows else equal
    np.testing.assert_array_equal(got.data[read], want.data[read])
    np.testing.assert_array_equal(got_x.grad[equal], want_x.grad[equal])


def test_cross_entropy_one_hot_optimum():
    p = ad.constant([[0.0, 1.0], [1.0, 0.0]])
    loss = ad.cross_entropy_rows(p, p)
    assert abs(loss.item()) < 1e-6


def test_cross_entropy_closed_form():
    p = ad.constant([[1.0, 0.0, 0.0]])
    q = ad.constant([[0.7870, 0.1065, 0.1065]])
    assert abs(ad.cross_entropy_rows(p, q).item() - 0.2395) < 1e-3


def test_cross_entropy_gibbs_inequality():
    rng = Rng(9)
    for _ in range(10):
        p = np.exp(rng.normal((4, 5)))
        p = p / p.sum(axis=-1, keepdims=True)
        q = np.exp(rng.normal((4, 5)))
        q = q / q.sum(axis=-1, keepdims=True)
        loss = ad.cross_entropy_rows(ad.constant(p), ad.constant(q)).item()
        entropy = float(-(p * np.log(p)).sum(axis=-1).mean())
        assert loss >= entropy - 1e-5


def test_cross_entropy_shape_mismatch():
    with pytest.raises(DimensionError):
        ad.cross_entropy_rows(ad.constant(np.zeros((2, 3))), ad.constant(np.zeros((2, 4))))


def test_backward_sum_gives_ones():
    x = ad.parameter(Rng(10).normal((3, 4)))
    ad.tsum(x).backward()
    np.testing.assert_allclose(x.grad, np.ones((3, 4)))


def test_backward_quadratic():
    data = np.asarray(Rng(11).normal((5,)), dtype=F64)
    x = ad.parameter(data, dtype=F64)
    x2 = ad.reshape(x, (1, 5))
    loss = ad.matmul(x2, ad.swap_last2(x2))
    ad.tsum(loss).backward()
    np.testing.assert_allclose(x.grad, 2.0 * data, atol=1e-10)


def test_backward_requires_scalar():
    x = ad.parameter(np.zeros((2, 2)))
    with pytest.raises(GraphError):
        (x + x).backward()


def test_backward_accumulates_across_calls():
    x = ad.parameter(np.ones(3))
    ad.tsum(x).backward()
    ad.tsum(x * 2.0).backward()
    np.testing.assert_allclose(x.grad, np.full(3, 3.0))


def test_backward_keeps_only_root_and_leaf_gradients():
    x = ad.parameter(np.array([1.0, -2.0, 3.0]), dtype=F64)
    h = relu(x * 2.0)
    loss = ad.tsum(ad.narrow(h, 0, 0, 2)) + ad.tsum(h * h)
    interior = [n for n in ad._topo_order(loss) if n._backward_fn is not None and n is not loss]
    assert len(interior) == 6
    loss.backward()
    assert all(n.grad is None for n in interior)
    np.testing.assert_array_equal(loss.grad, 1.0)
    np.testing.assert_array_equal(x.grad, [2.0 + 8.0, 0.0, 24.0])
    with pytest.raises(GraphError):
        loss.backward()
    np.testing.assert_array_equal(x.grad, [2.0 + 8.0, 0.0, 24.0])


def test_backward_releases_the_tape_as_it_runs():
    """After backward the forward arrays of interior nodes nobody holds are
    freed; a node the caller holds, and the root, have no parents and a
    ``_consumed`` closure, so a walk from the root finds nothing. Reuse
    still raises, and the root and leaf gradients are those of the pass."""
    x = ad.parameter(np.array([1.0, -2.0, 3.0]), dtype=F64)
    h = relu(x * 2.0)
    loss = ad.tsum(ad.narrow(h, 0, 0, 2)) + ad.tsum(h * h)
    order = ad._topo_order(loss)
    unheld = [weakref.ref(n.data) for n in order if n._parents and n is not h and n is not loss]
    assert len(unheld) == 5
    del order
    loss.backward()
    assert [r() for r in unheld] == [None] * 5
    for held in (h, loss):
        assert held._parents == () and held._backward_fn is ad._consumed
    assert ad._topo_order(loss) == [loss]
    assert x._backward_fn is None and x._parents == ()
    np.testing.assert_array_equal(loss.grad, 1.0)
    np.testing.assert_array_equal(x.grad, [2.0 + 8.0, 0.0, 24.0])
    for reuse in (loss, ad.tsum(h * 3.0)):
        with pytest.raises(GraphError, match="consumed"):
            reuse.backward()
    np.testing.assert_array_equal(loss.grad, 1.0)
    np.testing.assert_array_equal(x.grad, [2.0 + 8.0, 0.0, 24.0])


def test_second_backward_on_the_same_root_raises_before_writing_a_gradient():
    x = ad.parameter(np.array([1.0, -2.0, 3.0]), dtype=F64)
    loss = ad.tsum(x * x)
    loss.backward()
    with pytest.raises(GraphError, match="consumed"):
        loss.backward()
    np.testing.assert_array_equal(x.grad, [2.0, -4.0, 6.0])


def test_loss_built_on_a_consumed_intermediate_raises_before_writing_a_gradient():
    """The new loss's own closures would run first and reach the leaf ``w``;
    the pass refuses before any of them runs."""
    x = ad.parameter(np.array([1.0, -2.0, 3.0]), dtype=F64)
    w = ad.parameter(np.array([0.5, 0.25, 2.0]), dtype=F64)
    h = x * 2.0
    ad.tsum(h).backward()
    later = ad.tsum(h * w)
    with pytest.raises(GraphError, match="consumed"):
        later.backward()
    np.testing.assert_array_equal(x.grad, [2.0, 2.0, 2.0])
    assert w.grad is None and later.grad is None
    assert later._parents[0]._backward_fn is not ad._consumed


def test_graphs_sharing_only_leaves_accumulate_when_both_are_built_first():
    x = ad.parameter(np.array([1.0, -2.0, 3.0]), dtype=F64)
    first, second = ad.tsum(x * x), ad.tsum(x * 3.0)
    first.backward()
    second.backward()
    np.testing.assert_array_equal(x.grad, [5.0, -1.0, 9.0])


def test_fanout_gradient_accumulation():
    x = ad.parameter(np.array([2.0]), dtype=F64)
    y = x * x + x * 3.0
    ad.tsum(y).backward()
    np.testing.assert_allclose(x.grad, [7.0])


def test_conv2d_channel_mismatch():
    with pytest.raises(DimensionError):
        ad.conv2d(ad.constant(np.zeros((1, 4, 4, 2))),
                  ad.constant(np.zeros((3, 1, 3, 3))), ad.constant(np.zeros(3)))


def test_conv2d_matches_naive_loop():
    rng = Rng(12)
    x = np.asarray(rng.normal((2, 2, 5, 5)), dtype=np.float32)
    w = np.asarray(rng.normal((3, 2, 3, 3)), dtype=np.float32)
    b = np.asarray(rng.normal((3,)), dtype=np.float32)
    out = ad.conv2d(ad.constant(x.transpose(0, 2, 3, 1)), ad.constant(w), ad.constant(b),
                    stride=2, padding=1).data.transpose(0, 3, 1, 2)
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    expected = np.zeros_like(out)
    for n in range(2):
        for o in range(3):
            for i in range(out.shape[2]):
                for j in range(out.shape[3]):
                    patch = xp[n, :, 2 * i : 2 * i + 3, 2 * j : 2 * j + 3]
                    expected[n, o, i, j] = (patch * w[o]).sum() + b[o]
    np.testing.assert_allclose(out, expected, atol=1e-4)


@pytest.mark.parametrize("x_is_param", [False, True])
@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("stride,padding", [(2, 1), (1, 0)])
def test_conv2d_matches_nchw_reference(stride, padding, channels, x_is_param):
    """Channels-last conv2d equals the NCHW im2col reference: output and
    the gradients of x, w and b, in float64."""
    rng = Rng(13)
    x = np.asarray(rng.normal((2, channels, 7, 6)), dtype=F64)
    w = np.asarray(rng.normal((4, channels, 3, 3)), dtype=F64)
    b = np.asarray(rng.normal((4,)), dtype=F64)
    make = ad.parameter if x_is_param else ad.constant
    results = []
    for conv, layout, to_nchw in ((ad.conv2d, (0, 2, 3, 1), (0, 3, 1, 2)),
                                  (conv_reference.conv2d, (0, 1, 2, 3), (0, 1, 2, 3))):
        xt, wt, bt = make(x.transpose(layout), dtype=F64), ad.parameter(w, dtype=F64), ad.parameter(b, dtype=F64)
        out = conv(xt, wt, bt, stride=stride, padding=padding)
        upstream = np.asarray(Rng(14).normal(out.data.transpose(to_nchw).shape), dtype=F64)
        ad.tsum(out * ad.constant(upstream.transpose(layout), dtype=F64)).backward()
        gx = None if xt.grad is None else xt.grad.transpose(to_nchw)
        results.append((out.data.transpose(to_nchw), gx, wt.grad, bt.grad))
    (out, gx, gw, gb), (ref_out, ref_gx, ref_gw, ref_gb) = results
    np.testing.assert_allclose(out, ref_out, rtol=0, atol=1e-10)
    np.testing.assert_allclose(gw, ref_gw, rtol=0, atol=1e-10)
    np.testing.assert_allclose(gb, ref_gb, rtol=0, atol=1e-10)
    if x_is_param:
        np.testing.assert_allclose(gx, ref_gx, rtol=0, atol=1e-10)
    else:
        assert gx is None and ref_gx is None


def assert_same_bytes(got, want, dtype):
    for g, w in zip(got, want, strict=True):
        assert g.dtype == dtype and same_bytes(g, w)


TAP_CASES = [
    ((505, 32, 32, 1), (16, 1, 3, 3), 2, 1),  # the view encoder's three layers at 505 views
    ((505, 16, 16, 16), (32, 16, 3, 3), 2, 1),
    ((505, 8, 8, 32), (64, 32, 3, 3), 2, 1),
    ((3, 7, 6, 3), (4, 3, 3, 3), 1, 0),
    ((3, 2, 5, 2), (4, 2, 3, 3), 3, 3),  # kernel row 2 lands on no input row
    ((3, 7, 6, 3), (4, 3, 2, 3), 2, 1),
    ((1, 7, 7, 2), (3, 2, 3, 3), 2, 1),
]


@pytest.mark.parametrize("dtype", [np.float32, F64])
@pytest.mark.parametrize("x_shape,w_shape,stride,padding", TAP_CASES)
def test_conv2d_bitwise_equals_tap_buffer_reference(x_shape, w_shape, stride, padding, dtype):
    """Adding each tap's input gradient into gx as its GEMM finishes gives the
    same bytes as the [kh, kw, rows, C] tap buffer plus ``_add_taps``: the
    output and the gradients of x, w and b."""
    rng = Rng(21)
    x, w, b = (np.asarray(rng.normal(shape), dtype=dtype) for shape in (x_shape, w_shape, w_shape[:1]))
    ho = (x_shape[1] + 2 * padding - w_shape[2]) // stride + 1
    wo = (x_shape[2] + 2 * padding - w_shape[3]) // stride + 1
    upstream = np.asarray(rng.normal((x_shape[0], ho, wo, w_shape[0])), dtype=dtype)
    results = []
    for conv in (ad.conv2d, conv_reference.tap_buffer_conv2d):
        xt, wt, bt = (ad.parameter(a, dtype=dtype) for a in (x, w, b))
        out = conv(xt, wt, bt, stride=stride, padding=padding)
        ad.tsum(out * ad.constant(upstream, dtype=dtype)).backward()
        results.append((out.data, xt.grad, wt.grad, bt.grad))
    assert_same_bytes(*results, dtype)
    if padding == 3:
        assert any(s.start == s.stop for s, _ in ad._tap_slices(3, stride, padding, x_shape[1], ho))


def test_conv2d_backward_peak_memory_stays_under_gx_plus_three_taps():
    """conv2d's backward at x [64, 16, 16, 16], stride 2, allocates at most the
    input gradient plus three [rows, C] taps (1.83 MB); a [kh, kw, rows, C]
    tap buffer, as the reference builds, holds nine."""
    rng = Rng(22)
    x = ad.parameter(np.asarray(rng.normal((64, 16, 16, 16)), dtype=np.float32))
    w = ad.parameter(np.asarray(rng.normal((32, 16, 3, 3)), dtype=np.float32))
    b = ad.parameter(np.zeros(32, dtype=np.float32))
    peaks = []
    for conv in (ad.conv2d, conv_reference.tap_buffer_conv2d):
        x.grad = w.grad = b.grad = None
        out = conv(x, w, b, stride=2, padding=1)
        g = np.ones(out.shape, dtype=np.float32)
        tracemalloc.start()
        try:
            out._backward_fn(g)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert x.grad.shape == x.shape
    tap_bytes = int(np.prod(out.shape[:3])) * x.shape[3] * 4
    bound = x.data.nbytes + 3 * tap_bytes
    assert bound == 1_835_008
    assert peaks[0] <= bound < peaks[1]


def test_conv2d_backward_releases_its_columns_before_allocating_gx():
    """At x [64, 16, 16, 16], stride 2, the columns (2.36 MB) outweigh gx
    plus three taps (1.83 MB). With the columns released after the weight
    gradient, the backward's peak stays below the live bytes it starts from
    plus gx; held to the end, gx is allocated on top of them."""
    rng = Rng(22)
    x = ad.parameter(np.asarray(rng.normal((64, 16, 16, 16)), dtype=np.float32))
    w = ad.parameter(np.asarray(rng.normal((32, 16, 3, 3)), dtype=np.float32))
    b = ad.parameter(np.zeros(32, dtype=np.float32))
    tracemalloc.start()
    try:
        out = ad.conv2d(x, w, b, stride=2, padding=1)
        g = np.ones(out.shape, dtype=np.float32)
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out._backward_fn(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    cols_bytes = int(np.prod(out.shape[:3])) * 9 * x.shape[3] * 4
    tap_bytes = int(np.prod(out.shape[:3])) * x.shape[3] * 4
    assert cols_bytes == 2_359_296 > x.data.nbytes + 3 * tap_bytes
    assert x.grad.shape == x.shape and live >= cols_bytes + out.data.nbytes
    assert peak - live < x.data.nbytes  # gx has the bytes of x


# -- conv2d's tasks on two threads ---------------------------------------------

# (x shape, w shape, stride), padding 1: the view encoder's three layers at
# 531 and 257 views, at image 32 and at image 28 (196, 49 and 16 rows per
# view), a stride-1 layer, the middle layer (64 rows per view) at the
# fewest views that reach the size floor and at one view fewer, and the
# first layer at 32 views, whose weight GEMM (8192 rows) split in two would
# fall under ``_SMALL_GEMM``
FLOOR_VIEWS = ad._PARALLEL_MIN_ROWS // 64
SPLIT_CASES = [
    *(case for views in (531, 257) for case in (
        ((views, 32, 32, 1), (16, 1, 3, 3), 2),
        ((views, 16, 16, 16), (32, 16, 3, 3), 2),
        ((views, 8, 8, 32), (64, 32, 3, 3), 2),
    )),
    ((257, 28, 28, 1), (16, 1, 3, 3), 2),
    ((257, 14, 14, 16), (32, 16, 3, 3), 2),
    ((257, 7, 7, 32), (64, 32, 3, 3), 2),
    ((64, 16, 16, 16), (32, 16, 3, 3), 1),
    ((FLOOR_VIEWS, 16, 16, 16), (32, 16, 3, 3), 2),
    ((FLOOR_VIEWS - 1, 16, 16, 16), (32, 16, 3, 3), 2),
    ((32, 32, 32, 1), (16, 1, 3, 3), 2),
]


def conv_and_grads(x, w, b, g, stride):
    """conv2d's output and its x, w and b gradients under the loss
    ``sum(out * g)``; with one input channel, x is a constant (no
    gradient), as the view encoder's images are."""
    xt = ad.parameter(x) if x.shape[3] > 1 else ad.constant(x)
    wt, bt = ad.parameter(w), ad.parameter(b)
    out = ad.conv2d(xt, wt, bt, stride=stride, padding=1)
    ad.tsum(out * ad.constant(g)).backward()
    return out.data, xt.grad, wt.grad, bt.grad


def conv_inputs(x_shape, w_shape, stride, seed=27):
    rng = Rng(seed)
    side = (x_shape[1] + 2 - w_shape[2]) // stride + 1
    shapes = (x_shape, w_shape, w_shape[:1], (x_shape[0], side, side, w_shape[0]))
    return [np.asarray(rng.normal(shape), dtype=np.float32) for shape in shapes]


@pytest.mark.parametrize("x_shape,w_shape,stride", SPLIT_CASES)
def test_conv2d_on_two_threads_bitwise_equals_the_serial_path(monkeypatch, x_shape, w_shape, stride):
    """From the size floor up, conv2d runs its forward as four tasks (one
    im2col each) on the caller and the pool thread; its output and
    gradients have the bytes of the serial path (``_cpu_count`` patched to
    1), which runs each part as one task. Below the floor, both paths are
    the serial one."""
    x, w, b, g = conv_inputs(x_shape, w_shape, stride)
    im2col, forward_tasks = ad._im2col, itertools.count()

    def counting(*args, **kwargs):
        next(forward_tasks)
        return im2col(*args, **kwargs)

    monkeypatch.setattr(ad, "_im2col", counting)
    threaded = conv_and_grads(x, w, b, g, stride)
    split = g.shape[0] * g.shape[1] * g.shape[2] >= ad._PARALLEL_MIN_ROWS and ad._cpu_count() > 1
    assert next(forward_tasks) == (4 if split else 1)
    monkeypatch.setattr(ad, "_cpu_count", lambda: 1)
    forward_tasks = itertools.count()
    serial = conv_and_grads(x, w, b, g, stride)
    assert next(forward_tasks) == 1
    for got, want in zip(threaded, serial, strict=True):
        assert (got is None and want is None and x.shape[3] == 1) or same_bytes(got, want)


# Prints the number of live threads and the sha256 of one or more convs'
# outputs and gradients. one-cpu: pinned to one CPU before mvreport is
# imported; every-cpu: free to use every CPU; below-floor: free, but only
# the encoder's first layer at a decode's 1-3 views (at most 3 072 rows).
ONE_CONV = """
import hashlib, os, sys, threading
if sys.argv[1] == "one-cpu":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import numpy as np
from mvreport import autodiff as ad
rng = np.random.default_rng(0)
if sys.argv[1] == "below-floor":
    shapes = [((views, 32, 32, 1), (16, 1, 3, 3)) for views in (1, 2, 3)]
else:
    shapes = [((128, 16, 16, 16), (32, 16, 3, 3))]
arrays = []
for (n, h, _, c), (o, *_) in shapes:
    x = ad.parameter(rng.standard_normal((n, h, h, c)).astype(np.float32))
    w = ad.parameter(rng.standard_normal((o, c, 3, 3)).astype(np.float32))
    b = ad.parameter(rng.standard_normal(o).astype(np.float32))
    g = rng.standard_normal((n, h // 2, h // 2, o)).astype(np.float32)
    out = ad.conv2d(x, w, b, stride=2, padding=1)
    ad.tsum(out * ad.constant(g)).backward()
    arrays += [out.data, x.grad, w.grad, b.grad]
print(threading.active_count(), hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest())
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
def test_conv2d_on_one_cpu_starts_no_thread_and_gives_the_bytes_of_two():
    """A process that may run on one CPU only, set before it imports
    mvreport, runs a conv above the size floor on its own thread, and gets
    the bytes that a process free to use every CPU gets with the pool
    thread, at one BLAS thread in both. A free process that runs only
    convs below the floor starts no thread either."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), OPENBLAS_NUM_THREADS="1")
    runs = {}
    for mode in ("one-cpu", "every-cpu", "below-floor"):
        proc = subprocess.run([sys.executable, "-c", ONE_CONV, mode], env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        runs[mode] = proc.stdout.split()
    assert runs["one-cpu"][0] == "1"
    assert runs["every-cpu"][0] == ("2" if len(os.sched_getaffinity(0)) > 1 else "1")
    assert runs["one-cpu"][1] == runs["every-cpu"][1]
    assert runs["below-floor"][0] == "1"


# Runs a conv above the size floor, then the same conv in an os.fork()
# child, which exits normally, and in a fork-context multiprocessing pool;
# prints whether each gave the parent's sha256, and the child's exit code.
FORKED_CONV = """
import hashlib, multiprocessing, os, sys
import numpy as np
from mvreport import autodiff as ad

def conv_sha256():
    rng = np.random.default_rng(0)
    x = ad.parameter(rng.standard_normal((128, 16, 16, 16)).astype(np.float32))
    w = ad.parameter(rng.standard_normal((32, 16, 3, 3)).astype(np.float32))
    b = ad.parameter(rng.standard_normal(32).astype(np.float32))
    g = rng.standard_normal((128, 8, 8, 32)).astype(np.float32)
    out = ad.conv2d(x, w, b, stride=2, padding=1)
    ad.tsum(out * ad.constant(g)).backward()
    return hashlib.sha256(b"".join(a.tobytes() for a in (out.data, x.grad, w.grad, b.grad))).hexdigest()

parent = conv_sha256()
read, write = os.pipe()
pid = os.fork()
if pid == 0:
    os.close(read)
    with os.fdopen(write, "w") as pipe:
        pipe.write(conv_sha256())
    sys.exit(0)
os.close(write)
with os.fdopen(read) as pipe:
    child = pipe.read()
exit_code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
with multiprocessing.get_context("fork").Pool(1) as pool:
    pooled = pool.apply_async(conv_sha256).get()
print(child == parent, exit_code, pooled == parent)
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_conv2d_after_a_fork_finishes_with_the_parents_bytes():
    """A forked process, whose parent has used the pool thread, runs a conv
    above the size floor to the end with the parent's bytes, both as an
    ``os.fork()`` child and as a multiprocessing worker, and the child
    exits normally. The script runs in its own session, so that on a
    timeout every process it forked is killed with it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.Popen([sys.executable, "-c", FORKED_CONV], env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("a conv2d after a fork did not finish within 60 s")
    assert proc.returncode == 0
    assert out.split() == ["True", "0", "True"]


class TaskFailure(Exception):
    pass


def test_parallel_returns_results_in_order_and_raises_the_first_failure_after_all_tasks_ran():
    ran = []

    def task(i):
        ran.append(i)
        if i in (2, 5):
            raise TaskFailure(i)
        return i * i

    assert ad._parallel([lambda i=i: task(i) for i in (0, 1, 3)]) == [0, 1, 9]
    ran.clear()
    with pytest.raises(TaskFailure) as failure:
        ad._parallel([lambda i=i: task(i) for i in range(7)])
    assert failure.value.args == (2,) and sorted(ran) == list(range(7))


def test_a_failing_conv2d_task_raises_its_own_error_and_the_next_conv2d_succeeds(monkeypatch):
    """An error in one of conv2d's tasks (here the third im2col of four)
    reaches the caller with its own type; the same pool serves the next
    conv2d, which gives the serial path's bytes."""
    if ad._cpu_count() < 2:
        pytest.skip("conv2d splits into tasks only with more than one CPU")
    inputs = conv_inputs((128, 16, 16, 16), (32, 16, 3, 3), 2)
    im2col, calls = ad._im2col, itertools.count()

    def failing(*args, **kwargs):
        if next(calls) == 2:
            raise TaskFailure("im2col")
        return im2col(*args, **kwargs)

    monkeypatch.setattr(ad, "_im2col", failing)
    with pytest.raises(TaskFailure):
        conv_and_grads(*inputs, 2)
    assert next(calls) == 4
    pool = ad._pool[0]
    monkeypatch.setattr(ad, "_im2col", im2col)
    threaded = conv_and_grads(*inputs, 2)
    assert ad._pool == [pool]
    monkeypatch.setattr(ad, "_cpu_count", lambda: 1)
    for got, want in zip(threaded, conv_and_grads(*inputs, 2), strict=True):
        assert same_bytes(got, want)


@pytest.mark.parametrize("dtype", [np.float32, F64])
@pytest.mark.parametrize("x_shape,w_shape,stride,padding", TAP_CASES)
def test_conv2d_relu_bitwise_equals_relu_of_conv2d(x_shape, w_shape, stride, padding, dtype):
    """The fused block gives the bytes of ``relu(conv2d(...))``: the output and
    the gradients of x, w and b. Output channel 0 is NaN before the ReLU
    (a NaN bias) and channel 1 exactly 0 (zero weights and bias)."""
    rng = Rng(31)
    x, w, b = (np.asarray(rng.normal(shape), dtype=dtype) for shape in (x_shape, w_shape, w_shape[:1]))
    b[0] = np.nan
    w[1], b[1] = 0.0, 0.0
    ho = (x_shape[1] + 2 * padding - w_shape[2]) // stride + 1
    wo = (x_shape[2] + 2 * padding - w_shape[3]) // stride + 1
    upstream = np.asarray(rng.normal((x_shape[0], ho, wo, w_shape[0])), dtype=dtype)
    results = []
    for block in (ad.conv2d_relu, lambda *t, **kw: relu(ad.conv2d(*t, **kw))):
        xt, wt, bt = (ad.parameter(a, dtype=dtype) for a in (x, w, b))
        out = block(xt, wt, bt, stride=stride, padding=padding)
        ad.tsum(out * ad.constant(upstream, dtype=dtype)).backward()
        results.append((out.data, xt.grad, wt.grad, bt.grad))
    assert_same_bytes(*results, dtype)
    out, gx = results[0][:2]
    assert np.isnan(out[..., 0]).all() and (out[..., 1] == 0).all() and not np.isnan(gx).any()


@pytest.mark.parametrize("dtype", [np.float32, F64])
def test_conv2d_relu_masks_exact_zeros_and_nan_as_relu_does(monkeypatch, dtype):
    """The mask taken from the output (``out > 0``) equals relu's mask taken
    from its input (``a > 0``) on pre-activations 0.0, -0.0, NaN and the
    smallest subnormals: with conv2d standing in as the identity on x, the
    output and x's gradient are relu's bytes."""
    tiny = np.finfo(dtype).smallest_subnormal
    pre = np.array([0.0, -0.0, np.nan, -np.nan, tiny, -tiny, 1.5, -2.0, np.inf, -np.inf], dtype=dtype)
    upstream = np.arange(1, pre.size + 1, dtype=dtype)
    monkeypatch.setattr(ad, "conv2d", lambda x, w, b, stride, padding: x * 1.0)
    unused = ad.constant(np.zeros(1), dtype=dtype)
    results = []
    for block in (lambda a: ad.conv2d_relu(a, unused, unused), relu):
        a = ad.parameter(pre, dtype=dtype)
        out = block(a)
        ad.tsum(out * ad.constant(upstream, dtype=dtype)).backward()
        results.append((out.data, a.grad))
    assert_same_bytes(*results, dtype)
    assert results[0][1].tolist() == [0, 0, 0, 0, 5, 0, 7, 0, 9, 0]


AFFINE_CASES = [
    ((6, 4), (4, 5)),
    ((3, 7, 4), (4, 5)),
    ((256, 24, 64), (64, 128)),  # a Stage-1 FFN's first layer at B=256
]


@pytest.mark.parametrize("dtype", [np.float32, F64])
@pytest.mark.parametrize("x_shape,w_shape", AFFINE_CASES)
@pytest.mark.parametrize("trained", ["xwb", "wb", "b"])
def test_affine_bitwise_equals_matmul_plus_bias(x_shape, w_shape, trained, dtype):
    """``affine`` gives the bytes of ``matmul(x, w) + b``: the output and the
    gradient of every input that is trained (the others are constants)."""
    rng = Rng(32)
    arrays = [np.asarray(rng.normal(shape), dtype=dtype) for shape in (x_shape, w_shape, w_shape[-1:])]
    upstream = np.asarray(rng.normal(x_shape[:-1] + w_shape[-1:]), dtype=dtype)
    results = []
    for layer in (ad.affine, lambda x, w, b: ad.matmul(x, w) + b):
        inputs = [(ad.parameter if name in trained else ad.constant)(a, dtype=dtype)
                  for name, a in zip("xwb", arrays)]
        out = layer(*inputs)
        ad.tsum(out * ad.constant(upstream, dtype=dtype)).backward()
        results.append((out.data, *(t.grad for name, t in zip("xwb", inputs) if name in trained)))
    assert_same_bytes(*results, dtype)


@pytest.mark.parametrize("dtype", [np.float32, F64])
@pytest.mark.parametrize("x_shape,w_shape", AFFINE_CASES)
def test_affine_relu_bitwise_equals_relu_of_affine(x_shape, w_shape, dtype):
    """The fused layer gives the bytes of ``relu(affine(...))``: the output
    and the gradients of x, w and b. Before the ReLU, output column 0 is NaN
    (a NaN bias), columns 1 and 2 are +inf and -inf (infinite biases) and
    column 3 is exactly 0 (zero weights and bias)."""
    rng = Rng(33)
    x, w, b = (np.asarray(rng.normal(shape), dtype=dtype) for shape in (x_shape, w_shape, w_shape[-1:]))
    b[:3] = np.nan, np.inf, -np.inf
    w[:, 3], b[3] = 0.0, 0.0
    upstream = np.asarray(rng.normal(x_shape[:-1] + w_shape[-1:]), dtype=dtype)
    results = []
    for layer in (ad.affine_relu, lambda *t: relu(ad.affine(*t))):
        xt, wt, bt = (ad.parameter(a, dtype=dtype) for a in (x, w, b))
        out = layer(xt, wt, bt)
        ad.tsum(out * ad.constant(upstream, dtype=dtype)).backward()
        results.append((out.data, xt.grad, wt.grad, bt.grad))
    assert_same_bytes(*results, dtype)
    out = results[0][0]
    assert np.isnan(out[..., 0]).all() and np.isposinf(out[..., 1]).all() and (out[..., 2:4] == 0).all()


@pytest.mark.parametrize("dtype", [np.float32, F64])
def test_affine_relu_masks_exact_zeros_and_nan_as_relu_does(monkeypatch, dtype):
    """As for ``conv2d_relu``: with affine standing in as the identity on x,
    pre-activations 0.0, -0.0, NaN, the smallest subnormals and +-inf give
    relu's output and gradient bytes."""
    tiny = np.finfo(dtype).smallest_subnormal
    pre = np.array([0.0, -0.0, np.nan, -np.nan, tiny, -tiny, 1.5, -2.0, np.inf, -np.inf], dtype=dtype)
    upstream = np.arange(1, pre.size + 1, dtype=dtype)
    monkeypatch.setattr(ad, "affine", lambda x, w, b: x * 1.0)
    unused = ad.constant(np.zeros(1), dtype=dtype)
    results = []
    for layer in (lambda a: ad.affine_relu(a, unused, unused), relu):
        a = ad.parameter(pre, dtype=dtype)
        out = layer(a)
        ad.tsum(out * ad.constant(upstream, dtype=dtype)).backward()
        results.append((out.data, a.grad))
    assert_same_bytes(*results, dtype)
    assert results[0][1].tolist() == [0, 0, 0, 0, 5, 0, 7, 0, 9, 0]


@pytest.mark.parametrize("bias_shape", [(5, 1), (1, 5), (4,), ()])
def test_affine_rejects_a_bias_that_is_not_one_row(bias_shape):
    x, w = ad.constant(np.ones((3, 4))), ad.constant(np.ones((4, 5)))
    with pytest.raises(DimensionError, match=r"affine bias must have shape \(5,\)"):
        ad.affine(x, w, ad.constant(np.ones(bias_shape)))


def test_gather_rows_and_scatter_add_backward():
    table = ad.parameter(np.arange(8, dtype=F64).reshape(4, 2), dtype=F64)
    out = ad.gather_rows(table, np.array([[0, 1], [1, 3]]))
    assert out.shape == (2, 2, 2)
    ad.tsum(out).backward()
    np.testing.assert_allclose(table.grad, [[1, 1], [2, 2], [0, 0], [1, 1]])


@pytest.mark.parametrize("ids", [[-1, 2], [0, 3], [[1], [-3]]])
def test_gather_rows_rejects_ids_outside_the_table(ids):
    table = ad.parameter(np.zeros((3, 2)), dtype=F64)
    with pytest.raises(DimensionError, match=r"gather_rows ids must lie in \[0, 3\)"):
        ad.gather_rows(table, np.array(ids))


def test_take_last_selects_entries():
    x = ad.constant(np.arange(12, dtype=np.float32).reshape(3, 4))
    out = ad.take_last(x, np.array([0, 2, 3]))
    np.testing.assert_allclose(out.data, [0.0, 6.0, 11.0])


def test_log_clamps_small_arguments():
    out = ad.log(ad.constant([0.0], dtype=F64))
    assert np.isfinite(out.data).all()
    np.testing.assert_allclose(out.data, math.log(1e-12))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_softmax_rows_stochastic_property(seed):
    x = ad.constant(Rng(seed).normal((3, 5), std=5.0))
    sums = ad.softmax_rows(x, temperature=0.5).data.sum(axis=-1)
    np.testing.assert_allclose(sums, 1.0, atol=1e-5)


# -- gradient checks ---------------------------------------------------------


def test_grad_matmul():
    rng = Rng(100)
    a = p64(rng, (3, 4))
    b = p64(rng, (4, 2))
    check_grads(lambda: scalarize(ad.matmul(a, b), Rng(0)), [a, b])


def test_grad_matmul_with_weight_on_the_right():
    # [..., d] @ [d, k] runs its backward as 2-D GEMMs over folded rows
    rng = Rng(118)
    w = p64(rng, (4, 3))
    single = p64(rng, (1, 1, 4))
    check_grads(lambda: scalarize(ad.matmul(single, w), Rng(30)), [single, w])
    four_d = p64(rng, (2, 3, 2, 4))
    check_grads(lambda: scalarize(ad.matmul(four_d, w), Rng(31)), [four_d, w])
    x = p64(rng, (3, 2, 4))
    check_grads(lambda: scalarize(ad.matmul(ad.transpose(x, (1, 0, 2)), w), Rng(32)), [x, w])
    check_grads(lambda: ad.tsum(ad.matmul(x, w)), [x, w])  # upstream gradient is a broadcast view


@pytest.mark.parametrize("length", [10, 11, 16, 24])
@pytest.mark.parametrize("d", [64, 128])
def test_folded_matmul_backward_equals_batched_backward(length, d):
    rng = Rng(119)
    a = p64(rng, (256, length, d))
    w = p64(rng, (d, 64))
    upstream = np.asarray(rng.normal((256, length, 64)), dtype=F64)
    ad.tsum(ad.matmul(a, w) * ad.constant(upstream, F64)).backward()
    np.testing.assert_allclose(a.grad, np.matmul(upstream, w.data.T), rtol=0, atol=1e-10)
    batched_gw = np.matmul(np.swapaxes(a.data, -1, -2), upstream).sum(axis=0)
    np.testing.assert_allclose(w.grad, batched_gw, rtol=0, atol=1e-10)


def test_grad_elementwise_ops():
    rng = Rng(101)
    a = p64(rng, (3, 4))
    b = ad.parameter(np.asarray(rng.normal((3, 4)), dtype=F64) + 2.0, dtype=F64)  # away from 0

    check_grads(lambda: scalarize(a + b, Rng(1)), [a, b])
    check_grads(lambda: scalarize(a - b, Rng(2)), [a, b])
    check_grads(lambda: scalarize(a * b, Rng(3)), [a, b])
    check_grads(lambda: scalarize(ad.div(a, b), Rng(4)), [a, b])
    check_grads(lambda: scalarize(exp(a), Rng(5)), [a])
    check_grads(lambda: scalarize(ad.log(b), Rng(6)), [b])


def test_grad_relu_away_from_kink():
    rng = Rng(102)
    data = np.asarray(rng.normal((4, 4)), dtype=F64)
    data[np.abs(data) < 0.1] = 0.5
    x = ad.parameter(data, dtype=F64)
    check_grads(lambda: scalarize(relu(x), Rng(7)), [x])


def test_grad_broadcast_ops():
    rng = Rng(103)
    a = p64(rng, (3, 4))
    b = p64(rng, (1, 4))
    c = p64(rng, (4,))
    check_grads(lambda: scalarize(a + b, Rng(8)), [a, b])
    check_grads(lambda: scalarize(a * c, Rng(9)), [a, c])


def test_grad_shape_ops():
    rng = Rng(104)
    x = p64(rng, (2, 3, 4))
    check_grads(lambda: scalarize(ad.reshape(x, (6, 4)), Rng(10)), [x])
    check_grads(lambda: scalarize(ad.transpose(x, (2, 0, 1)), Rng(11)), [x])
    check_grads(lambda: scalarize(ad.swap_last2(x), Rng(12)), [x])
    check_grads(lambda: scalarize(ad.narrow(x, 1, 1, 2), Rng(13)), [x])


def test_grad_concat_and_broadcast_to():
    rng = Rng(105)
    a = p64(rng, (2, 3))
    b = p64(rng, (4, 3))
    check_grads(lambda: scalarize(ad.concat([a, b], axis=0), Rng(14)), [a, b])
    check_grads(lambda: scalarize(ad.broadcast_to(a, (4, 2, 3)), Rng(15)), [a])
    c = p64(rng, (2, 1))
    check_grads(lambda: scalarize(ad.broadcast_to(c, (3, 2, 5)), Rng(16)), [c])


def test_grad_reductions():
    rng = Rng(106)
    x = p64(rng, (3, 4))
    check_grads(lambda: ad.tsum(x * x), [x])
    check_grads(lambda: scalarize(ad.tsum(x, axis=1), Rng(16)), [x])
    check_grads(lambda: scalarize(ad.tmean(x, axis=0), Rng(17)), [x])
    check_grads(lambda: ad.tmean(exp(x)), [x])


def test_grad_softmax_and_log_softmax():
    rng = Rng(107)
    x = p64(rng, (3, 5))
    check_grads(lambda: scalarize(ad.softmax_rows(x, temperature=0.5), Rng(18)), [x])
    check_grads(lambda: scalarize(ad.log_softmax_rows(x, temperature=0.7), Rng(19)), [x])


def test_grad_layer_norm():
    rng = Rng(108)
    x = p64(rng, (3, 6))
    g = ad.parameter(np.asarray(rng.normal((6,)), dtype=F64) + 1.5, dtype=F64)
    b = p64(rng, (6,))
    check_grads(lambda: scalarize(ad.layer_norm(x, g, b), Rng(20)), [x, g, b])


def test_grad_l2_normalize():
    rng = Rng(109)
    data = np.asarray(rng.normal((4, 5)), dtype=F64)
    data += np.sign(data.sum(axis=-1, keepdims=True))  # keep norms well away from 0
    x = ad.parameter(data, dtype=F64)
    check_grads(lambda: scalarize(ad.l2_normalize(x), Rng(21)), [x])


def test_grad_attention():
    rng = Rng(110)
    q = p64(rng, (3, 4))
    k = p64(rng, (5, 4))
    v = p64(rng, (5, 4))
    check_grads(lambda: scalarize(ad.scaled_dot_attention(q, k, v), Rng(22)), [q, k, v])


def test_grad_cross_entropy():
    rng = Rng(111)
    q_data = np.exp(np.asarray(rng.normal((3, 4)), dtype=F64))
    q_data = q_data / q_data.sum(axis=-1, keepdims=True)
    q = ad.parameter(q_data, dtype=F64)
    p = ad.constant(np.full((3, 4), 0.25), dtype=F64)
    check_grads(lambda: ad.cross_entropy_rows(p, q), [q])


def test_grad_conv2d():
    rng = Rng(112)
    x = ad.parameter(np.ascontiguousarray(p64(rng, (2, 2, 5, 5)).data.transpose(0, 2, 3, 1)), dtype=F64)
    w = p64(rng, (3, 2, 3, 3), scale=0.5)
    b = p64(rng, (3,))
    check_grads(lambda: scalarize(ad.conv2d(x, w, b, stride=2, padding=1), Rng(23)), [x, w, b],
                rtol=1e-4, atol=1e-5)
    check_grads(lambda: scalarize(ad.conv2d(x, w, b, stride=1, padding=0), Rng(24)), [x, w, b],
                rtol=1e-4, atol=1e-5)


def test_grad_affine_and_take_last():
    rng = Rng(113)
    x = p64(rng, (3, 4))
    w = p64(rng, (4, 5))
    b = p64(rng, (5,))
    idx = np.array([0, 2, 4])
    check_grads(lambda: ad.tsum(ad.take_last(ad.affine(x, w, b), idx)), [x, w, b])


def test_grad_gather_rows():
    rng = Rng(114)
    table = p64(rng, (6, 3))
    idx = np.array([[0, 1, 1], [5, 2, 0]])
    check_grads(lambda: scalarize(ad.gather_rows(table, idx), Rng(25)), [table])


def test_grad_gather_rows_of_3d_parent_with_repeated_rows():
    rng = Rng(115)
    table = p64(rng, (5, 3, 4))
    idx = np.array([[0, 2, 2], [4, 0, 0]])
    check_grads(lambda: scalarize(ad.gather_rows(table, idx), Rng(26)), [table])


@pytest.mark.parametrize("shape,n_ids", [((40, 64), 3072), ((5, 3, 4), 50), ((7, 2), 7)])
@pytest.mark.parametrize("existing", [False, True])
def test_gather_rows_repeated_ids_backward_equals_add_at(shape, n_ids, existing):
    rng = Rng(120)
    table = p64(rng, shape)
    ids = np.asarray(Rng(121).normal((n_ids,)) * 1e3, dtype=np.int64) % shape[0]
    ids[-1] = ids[0]  # at least one repeat
    upstream = np.asarray(rng.normal((n_ids,) + shape[1:]), dtype=F64)
    loss = ad.tsum(ad.gather_rows(table, ids) * ad.constant(upstream, F64))
    expected = np.zeros(shape)
    if existing:  # the scatter then adds into a gradient that is already there
        loss = loss + ad.tsum(table)
        expected += 1.0
    loss.backward()
    np.add.at(expected, ids, upstream)
    np.testing.assert_allclose(table.grad, expected, rtol=0, atol=1e-10)


def test_grad_slice_gradients_sum_with_fan_out_gradients():
    # narrow, gather_rows and take_last each give x a gradient that sums
    # with the gradients of x's other consumers
    rng = Rng(116)
    x = p64(rng, (3, 4, 5))

    def loss():
        parts = [
            scalarize(ad.narrow(x, 1, 0, 3), Rng(27)),
            scalarize(ad.narrow(x, 1, 2, 2), Rng(28)),
            scalarize(ad.gather_rows(x, np.array([2, 2, 0])), Rng(29)),
            ad.tsum(ad.take_last(x, np.array([[0, 4, 4, 1], [2, 2, 3, 0], [1, 1, 1, 1]]))),
            ad.tsum(x * x),
        ]
        total = parts[0]
        for part in parts[1:]:
            total = total + part
        return total

    check_grads(loss, [x])


@pytest.mark.parametrize("slice_op", ["narrow", "gather_rows"])
@pytest.mark.parametrize("slice_term_first", [False, True])
def test_parents_of_add_get_independent_gradients(slice_op, slice_term_first):
    # add hands one upstream array to both parents; p then also takes a slice
    # gradient, which must not reach q's
    rng = Rng(117)
    p = p64(rng, (4, 3))
    q = p64(rng, (4, 3))
    c = np.asarray(rng.normal((4, 3)), dtype=F64)
    d = np.asarray(rng.normal((2, 3)), dtype=F64)
    sliced = ad.narrow(p, 0, 1, 2) if slice_op == "narrow" else ad.gather_rows(p, np.array([1, 2]))
    terms = [ad.tsum(ad.add(p, q) * ad.constant(c, F64)), ad.tsum(sliced * ad.constant(d, F64))]
    if slice_term_first:
        terms.reverse()
    (terms[0] + terms[1]).backward()
    expected_p = c.copy()
    expected_p[1:3] += d
    np.testing.assert_array_equal(q.grad, c)
    np.testing.assert_array_equal(p.grad, expected_p)


# -- node outputs ------------------------------------------------------------


def op_cases():
    """One call of every op that returns a Tensor, on float64 inputs: op name -> thunk."""
    rng = Rng(41)
    a, b, g, bias = p64(rng, (3, 4)), p64(rng, (3, 4)), p64(rng, (4,)), p64(rng, (4,))
    x, m, c = p64(rng, (2, 3, 4)), p64(rng, (4, 5)), p64(rng, (5,))
    k, v = p64(rng, (2, 5, 4)), p64(rng, (2, 5, 4))
    img, w, cb = p64(rng, (2, 6, 6, 3)), p64(rng, (5, 3, 3, 3)), p64(rng, (5,))
    positive = ad.parameter(np.abs(a.data) + 0.5, dtype=F64)
    target = ad.constant(ad.softmax_rows(b).data, dtype=F64)
    return {
        "constant": lambda: ad.constant(2.0, dtype=F64),
        "parameter": lambda: ad.parameter(2.0, dtype=F64),
        "add": lambda: ad.add(a, b),
        "sub": lambda: ad.sub(a, b),
        "mul": lambda: ad.mul(a, b),
        "div": lambda: ad.div(a, positive),
        "relu": lambda: relu(a),
        "exp": lambda: exp(a),
        "log": lambda: ad.log(positive),
        "reshape": lambda: ad.reshape(a, (4, 3)),
        "transpose": lambda: ad.transpose(x, (2, 0, 1)),
        "broadcast_to": lambda: ad.broadcast_to(g, (3, 4)),
        "swap_last2": lambda: ad.swap_last2(x),
        "concat": lambda: ad.concat([a, b], axis=0),
        "narrow": lambda: ad.narrow(x, 1, 1, 2),
        "gather_rows": lambda: ad.gather_rows(a, np.array([[2, 0], [1, 1]])),
        "take_last": lambda: ad.take_last(a, np.array([3, 0, 1])),
        "tsum": lambda: ad.tsum(a),
        "tmean": lambda: ad.tmean(a),
        "matmul": lambda: ad.matmul(x, m),
        "softmax_rows": lambda: ad.softmax_rows(a, 0.5),
        "log_softmax_rows": lambda: ad.log_softmax_rows(a),
        "layer_norm": lambda: ad.layer_norm(a, g, bias),
        "add_layer_norm": lambda: ad.add_layer_norm(a, b, g, bias),
        "l2_normalize": lambda: ad.l2_normalize(a),
        "scaled_dot_attention": lambda: ad.scaled_dot_attention(x, k, v, key_mask=np.array([True, False] * 2 + [True])),
        "cross_entropy_rows": lambda: ad.cross_entropy_rows(target, ad.softmax_rows(a)),
        "conv2d": lambda: ad.conv2d(img, w, cb, stride=2, padding=1),
        "conv2d_relu": lambda: ad.conv2d_relu(img, w, cb, stride=2, padding=1),
        "affine": lambda: ad.affine(x, m, c),
        "affine_relu": lambda: ad.affine_relu(x, m, c),
    }


# ops whose output is one number: a 0-d array, not a NumPy scalar
FULL_REDUCTIONS = {"constant", "parameter", "tsum", "tmean", "cross_entropy_rows"}


def test_op_cases_cover_every_op():
    ops = {name for module in (ad, op_reference) for name, fn in vars(module).items()
           if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not name.startswith("_")
           and inspect.signature(fn).return_annotation == "Tensor"}
    assert ops == set(op_cases())


@pytest.mark.parametrize("op", list(op_cases()))
def test_every_op_output_is_an_ndarray_with_or_without_a_graph(op):
    """Each op's ``.data`` is an ``np.ndarray`` (a full reduction's a 0-d
    one, which a weak reference can point at), recorded or not; the
    no-graph call, which skips backward-only work, gives the same bytes."""
    recorded = op_cases()[op]()
    with ad.no_grad():
        plain = op_cases()[op]()
    assert plain._parents == () and plain._backward_fn is None
    for out in (recorded, plain):
        assert type(out.data) is np.ndarray
        assert (out.data.ndim == 0) == (op in FULL_REDUCTIONS)
        weakref.ref(out.data)
    assert same_bytes(plain.data, recorded.data)


# -- no_grad -----------------------------------------------------------------


def test_no_grad_records_no_graph_and_nests():
    w = ad.parameter(np.ones((2, 2)))
    with ad.no_grad():
        with ad.no_grad():
            inner = ad.matmul(w, w)
        outer = relu(w)
        assert not ad.GRAD_ENABLED
    for t in (inner, outer):
        assert t._parents == () and t._backward_fn is None and not t.requires_grad
    assert ad.GRAD_ENABLED
    assert ad.matmul(w, w)._parents == (w, w)


def test_no_grad_restores_state_after_exception():
    with pytest.raises(DimensionError):
        with ad.no_grad():
            ad.matmul(ad.constant(np.ones((2, 3))), ad.constant(np.ones((2, 3))))
    assert ad.GRAD_ENABLED
    with ad.no_grad():
        with pytest.raises(DimensionError):
            with ad.no_grad():
                ad.matmul(ad.constant(np.ones((2, 3))), ad.constant(np.ones((2, 3))))
        assert not ad.GRAD_ENABLED
    assert ad.GRAD_ENABLED
