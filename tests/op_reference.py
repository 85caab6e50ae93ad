"""Reference elementwise ops that the model does not use: ``relu``, ``exp``,
``sub`` and ``div``.

The model applies its ReLUs inside the fused ``autodiff.conv2d_relu`` and
``affine_relu``, and exponentiates only inside the softmaxes. These two
ops are the separate nodes the tests compare those fused ops against.
The model never subtracts or divides tensors: tensors support only
``+``, ``*`` and unary ``-``, so ``sub`` and ``div`` have no operator
that calls them. All four are members of the engine's op tables and
gradient checks, and record nodes through ``autodiff._make``, as the
engine's own ops do.
"""

from __future__ import annotations

import numpy as np

from mvreport.autodiff import Tensor, _make, _needs_grad, _unbroadcast


def relu(a: Tensor) -> Tensor:
    out_data = np.maximum(a.data, 0)

    def backward_fn(g):
        a._accumulate(g * (a.data > 0))

    return _make(out_data, (a,), backward_fn, "relu")


def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)

    def backward_fn(g):
        a._accumulate(g * out_data)

    return _make(out_data, (a,), backward_fn, "exp")


def sub(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data - b.data

    def backward_fn(g):
        if _needs_grad(a):
            a._accumulate(_unbroadcast(g, a.shape))
        if _needs_grad(b):
            b._accumulate(_unbroadcast(-g, b.shape))

    return _make(out_data, (a, b), backward_fn, "sub")


def div(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data / b.data

    def backward_fn(g):
        if _needs_grad(a):
            a._accumulate(_unbroadcast(g / b.data, a.shape))
        if _needs_grad(b):
            b._accumulate(_unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return _make(out_data, (a, b), backward_fn, "div")
