"""Reference convolutions and view encoder.

``_im2col``, ``_col2im`` and ``conv2d`` are the NCHW im2col convolution
that ``autodiff.conv2d`` replaced with a channels-last one (one GEMM per
tap for the input gradient); ``reference_encode_views`` is the view
encoder built on it, ending in a reshape and transpose to [M, p, d1].
``tap_buffer_conv2d`` is the channels-last convolution whose backward
built every tap's input gradient at once, a [kh, kw, rows, C] buffer
from one batched ``np.matmul``, and then added the taps into the input
gradient with ``_add_taps``; ``autodiff.conv2d`` now adds each tap as
soon as its GEMM is done. The tests require the versions to agree.
"""

import numpy as np

from mvreport import autodiff as ad
from mvreport.autodiff import Tensor, _make, _needs_grad, _sum64
from mvreport.errors import DimensionError
from op_reference import relu


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, pad: int):
    n, c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    s0, s1, s2, s3 = xp.strides
    view = np.lib.stride_tricks.as_strided(
        xp,
        shape=(n, c, kh, kw, ho, wo),
        strides=(s0, s1, s2, s3, s2 * stride, s3 * stride),
        writeable=False,
    )
    cols = view.transpose(0, 4, 5, 1, 2, 3).reshape(n * ho * wo, c * kh * kw)
    return np.ascontiguousarray(cols), ho, wo


def _col2im(gcols: np.ndarray, x_shape, kh: int, kw: int, stride: int, pad: int):
    n, c, h, w = x_shape
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    gx = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=gcols.dtype)
    g6 = gcols.reshape(n, ho, wo, c, kh, kw).transpose(0, 3, 4, 5, 1, 2)
    for i in range(kh):
        for j in range(kw):
            gx[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride] += g6[:, :, i, j]
    if pad:
        gx = gx[:, :, pad:-pad, pad:-pad]
    return gx


def conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D convolution, NCHW layout, via im2col."""
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise DimensionError(f"conv2d expects 4-D input/weight, got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[1]:
        raise DimensionError(f"conv2d channel mismatch: input {x.shape} vs weight {w.shape}")
    n = x.shape[0]
    o, _, kh, kw = w.shape
    cols, ho, wo = _im2col(x.data, kh, kw, stride, padding)
    wmat = w.data.reshape(o, -1)
    out = cols @ wmat.T + b.data
    out_data = out.reshape(n, ho, wo, o).transpose(0, 3, 1, 2)

    def backward_fn(g):
        gmat = g.transpose(0, 2, 3, 1).reshape(-1, o)
        if _needs_grad(w):
            w._accumulate((gmat.T @ cols).reshape(w.shape))
        if _needs_grad(b):
            b._accumulate(_sum64(gmat, axis=0))
        if _needs_grad(x):
            gcols = gmat @ wmat
            x._accumulate(_col2im(gcols, x.shape, kh, kw, stride, padding))

    return _make(np.ascontiguousarray(out_data), (x, w, b), backward_fn, "conv2d")


def _add_taps(gtaps: np.ndarray, x_shape, ho: int, wo: int, stride: int, pad: int):
    """Per-tap input gradients [kh, kw, N*Ho*Wo, C] -> [N, H, W, C]."""
    n, h, w, c = x_shape
    kh, kw = gtaps.shape[:2]
    gx = np.zeros(x_shape, dtype=gtaps.dtype)
    taps = gtaps.reshape(kh, kw, n, ho, wo, c)
    for i, (out_rows, in_rows) in enumerate(ad._tap_slices(kh, stride, pad, h, ho)):
        for j, (out_cols, in_cols) in enumerate(ad._tap_slices(kw, stride, pad, w, wo)):
            gx[:, in_rows, in_cols] += taps[i, j, :, out_rows, out_cols]
    return gx


def tap_buffer_conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Channels-last conv2d whose input gradient goes through a [kh, kw, rows, C] tap buffer."""
    o, c, kh, kw = w.shape
    cols, ho, wo = ad._im2col(x.data, kh, kw, stride, padding)
    wmat = w.data.transpose(0, 2, 3, 1).reshape(o, -1)
    out = cols @ wmat.T
    out += b.data

    def backward_fn(g):
        gmat = g.reshape(-1, o)
        if _needs_grad(w):
            gw = (gmat.T @ cols).reshape(o, kh, kw, c).transpose(0, 3, 1, 2)
            w._accumulate(np.ascontiguousarray(gw))
        if _needs_grad(b):
            b._accumulate(_sum64(gmat, axis=0))
        if _needs_grad(x):
            gtaps = np.matmul(gmat, np.ascontiguousarray(w.data.transpose(2, 3, 0, 1)))
            x._accumulate(_add_taps(gtaps, x.shape, ho, wo, stride, padding))

    return _make(out.reshape(x.shape[0], ho, wo, o), (x, w, b), backward_fn, "conv2d")


def reference_encode_views(views: np.ndarray, params: dict) -> Tensor:
    """[M, 1, H, W] images -> per-view feature maps [M, p, d1], NCHW throughout."""
    x = ad.constant(views)
    for i in range(3):
        x = conv2d(x, params[f"stage1.vis.conv{i}.w"], params[f"stage1.vis.conv{i}.b"], stride=2, padding=1)
        x = relu(x)
    m, d1 = x.shape[0], x.shape[1]
    x = ad.reshape(x, (m, d1, x.shape[2] * x.shape[3]))  # [M, d1, p]
    return ad.transpose(x, (0, 2, 1))
