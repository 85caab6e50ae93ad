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
    state = {name: {k: v.copy() for k, v in st.items()} for name, st in opt.state.items()}
    with pytest.raises(NumericalAbort) as excinfo:
        opt.step()
    assert excinfo.value.dump == {"non_finite_grads": ["b"]}
    assert opt.step_count == 2
    for k, v in params.items():
        np.testing.assert_array_equal(v.data, before[k])
    for name, st in opt.state.items():
        for k, v in st.items():
            np.testing.assert_array_equal(v, state[name][k])
