import numpy as np
import pytest

from mvreport import autodiff as ad
from mvreport.errors import NumericalAbort
from mvreport.optim import AdamW
from mvreport.rng import Rng


def _quadratic_params(seed=0):
    rng = Rng(seed)
    return {"w": ad.parameter(rng.normal((4,), std=2.0)),
            "b": ad.parameter(rng.normal((1,), std=2.0))}


def _loss(params):
    return ad.tsum(params["w"] * params["w"]) + ad.tsum(params["b"] * params["b"])


def test_adamw_minimizes_quadratic():
    params = _quadratic_params()
    opt = AdamW([(params, 1e-1)])
    first = _loss(params).item()
    for _ in range(200):
        opt.zero_grad()
        loss = _loss(params)
        loss.backward()
        opt.step()
    assert _loss(params).item() < 1e-3 < first


def test_adamw_group_learning_rates_differ():
    params = _quadratic_params(seed=1)
    fast = {"w": params["w"]}
    slow = {"b": params["b"]}
    opt = AdamW([(slow, 1e-5), (fast, 1e-1)])
    w0, b0 = params["w"].data.copy(), params["b"].data.copy()
    for _ in range(10):
        opt.zero_grad()
        _loss(params).backward()
        opt.step()
    assert np.abs(params["w"].data - w0).max() > 100 * np.abs(params["b"].data - b0).max()


def test_adamw_skips_params_without_grad():
    params = _quadratic_params(seed=2)
    untouched = ad.parameter(np.ones(3, dtype=np.float32))
    opt = AdamW([({"w": params["w"], "u": untouched}, 1e-1)])
    opt.zero_grad()
    ad.tsum(params["w"] * params["w"]).backward()
    opt.step()
    np.testing.assert_array_equal(untouched.data, 1.0)


def test_adamw_weight_decay_shrinks_weights():
    # zero gradient, pure decay: weights must decay toward zero
    p = ad.parameter(np.full(3, 4.0, dtype=np.float32))
    opt = AdamW([({"p": p}, 1e-2)], weight_decay=0.5)
    for _ in range(20):
        p.grad = np.zeros_like(p.data)
        opt.step()
    assert np.abs(p.data).max() < 4.0


def test_adamw_first_step_size_is_lr():
    # with bias correction, the very first Adam step has magnitude ~lr
    p = ad.parameter(np.zeros(1, dtype=np.float32))
    opt = AdamW([({"p": p}, 1e-2)])
    p.grad = np.array([3.0], dtype=np.float32)
    opt.step()
    assert p.data[0] == np.float32(-1e-2 * (1.0 / (1.0 + 1e-8)))


def test_adamw_state_roundtrip_resumes_identically():
    params_a = _quadratic_params(seed=3)
    params_b = {k: ad.parameter(v.data.copy()) for k, v in params_a.items()}
    opt_a = AdamW([(params_a, 1e-2)])
    for _ in range(5):
        opt_a.zero_grad()
        _loss(params_a).backward()
        opt_a.step()

    opt_b = AdamW([(params_b, 1e-2)])
    for _ in range(3):
        opt_b.zero_grad()
        _loss(params_b).backward()
        opt_b.step()
    saved = {k: v.copy() for k, v in opt_b.state_arrays().items()}
    saved_step = opt_b.step_count
    saved_params = {k: v.data.copy() for k, v in params_b.items()}

    params_c = {k: ad.parameter(v.copy()) for k, v in saved_params.items()}
    opt_c = AdamW([(params_c, 1e-2)])
    opt_c.load_state_arrays(saved, saved_step)
    for opt, params in ((opt_b, params_b), (opt_c, params_c)):
        for _ in range(2):
            opt.zero_grad()
            _loss(params).backward()
            opt.step()
    for k in params_a:
        np.testing.assert_array_equal(params_b[k].data, params_c[k].data)
        np.testing.assert_array_equal(params_a[k].data, params_b[k].data)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_adamw_non_finite_gradient_aborts_before_any_update(bad):
    params = _quadratic_params(seed=4)
    opt = AdamW([({"w": params["w"]}, 1e-2), ({"b": params["b"]}, 1e-3)], weight_decay=0.1)
    for _ in range(2):
        opt.zero_grad()
        _loss(params).backward()
        opt.step()
    opt.zero_grad()
    _loss(params).backward()
    params["b"].grad[0] = bad
    before = {k: v.data.copy() for k, v in params.items()}
    state = {k: v.copy() for k, v in opt.state_arrays().items()}
    with pytest.raises(NumericalAbort) as excinfo:
        opt.step()
    assert excinfo.value.dump == {"non_finite_grads": ["b"]}
    assert opt.step_count == 2
    for k, v in params.items():
        np.testing.assert_array_equal(v.data, before[k])
    for k, v in opt.state_arrays().items():
        np.testing.assert_array_equal(v, state[k])
