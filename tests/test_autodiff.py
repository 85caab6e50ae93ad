import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mvreport import autodiff as ad
from mvreport.errors import (
    DimensionError,
    EmptyKeyError,
    GraphError,
    ParameterError,
    ValidationError,
)
from mvreport.rng import Rng

import conv_reference
from gradcheck import check_grads

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


def test_layer_norm_shape_error():
    with pytest.raises(DimensionError):
        ad.layer_norm(ad.constant(np.zeros((2, 4))), ad.constant(np.ones(3)), ad.constant(np.zeros(3)))


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


def test_cross_entropy_debug_validation():
    ad.set_debug_validation(True)
    try:
        with pytest.raises(ValidationError):
            ad.cross_entropy_rows(ad.constant([[0.5, 0.2]]), ad.constant([[0.5, 0.5]]))
    finally:
        ad.set_debug_validation(False)


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


def test_gather_rows_and_scatter_add_backward():
    table = ad.parameter(np.arange(8, dtype=F64).reshape(4, 2), dtype=F64)
    out = ad.gather_rows(table, np.array([[0, 1], [1, 3]]))
    assert out.shape == (2, 2, 2)
    ad.tsum(out).backward()
    np.testing.assert_allclose(table.grad, [[1, 1], [2, 2], [0, 0], [1, 1]])


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


def test_grad_elementwise_ops():
    rng = Rng(101)
    a = p64(rng, (3, 4))
    b = ad.parameter(np.asarray(rng.normal((3, 4)), dtype=F64) + 2.0, dtype=F64)  # away from 0

    check_grads(lambda: scalarize(a + b, Rng(1)), [a, b])
    check_grads(lambda: scalarize(a - b, Rng(2)), [a, b])
    check_grads(lambda: scalarize(a * b, Rng(3)), [a, b])
    check_grads(lambda: scalarize(ad.div(a, b), Rng(4)), [a, b])
    check_grads(lambda: scalarize(ad.exp(a), Rng(5)), [a])
    check_grads(lambda: scalarize(ad.log(b), Rng(6)), [b])


def test_grad_relu_away_from_kink():
    rng = Rng(102)
    data = np.asarray(rng.normal((4, 4)), dtype=F64)
    data[np.abs(data) < 0.1] = 0.5
    x = ad.parameter(data, dtype=F64)
    check_grads(lambda: scalarize(ad.relu(x), Rng(7)), [x])


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
    check_grads(lambda: ad.tmean(ad.exp(x)), [x])


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


def test_grad_slices_add_into_an_existing_gradient():
    # narrow, gather_rows and take_last add into the parent's gradient in
    # place; fan-out makes each one find a gradient already there
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


# -- no_grad -----------------------------------------------------------------


def test_no_grad_records_no_graph_and_nests():
    w = ad.parameter(np.ones((2, 2)))
    with ad.no_grad():
        with ad.no_grad():
            inner = ad.matmul(w, w)
        outer = ad.relu(w)
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
