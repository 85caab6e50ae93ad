"""Reference elementwise ops that the model does not use: ``relu`` and ``exp``.

The model applies its ReLUs inside the fused ``autodiff.conv2d_relu`` and
``affine_relu``, and exponentiates only inside the softmaxes. These two
ops are the separate nodes the tests compare those fused ops against,
and members of the engine's op tables and gradient checks. They record
nodes through ``autodiff._make``, as the engine's own ops do.
"""

from __future__ import annotations

import numpy as np

from mvreport.autodiff import Tensor, _make


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
