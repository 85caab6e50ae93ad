"""Minimal dense-tensor engine with reverse-mode automatic differentiation.

Tensors wrap row-major numpy arrays (float32 by default; float64 is
supported for verification). The graph is rebuilt per step: every op
records its parents and a backward closure, and ``backward()`` on a
scalar runs the tape once in reverse topological order, accumulating
gradients additively at fan-out. Inside ``no_grad()`` no graph is
recorded, for forwards whose graph nothing reads.

Reductions accumulate in 64-bit regardless of the storage dtype.
Softmax subtracts the row max before exponentiation; log clamps its
argument at 1e-12.
"""

from __future__ import annotations

import contextlib
import logging
import math

import numpy as np

from .errors import DimensionError, EmptyKeyError, GraphError, ParameterError, ValidationError

_logger = logging.getLogger(__name__)

DEFAULT_DTYPE = np.float32
LOG_CLAMP = 1e-12
L2_EPS = 1e-12
# Additive score for a masked attention or logit position; exp() of it underflows to exactly 0.
NEG_INF = -1e9

# When True, cross_entropy_rows validates that its inputs are row-stochastic.
DEBUG_VALIDATE = False
# When False, ops record no graph (see no_grad).
GRAD_ENABLED = True
# Set once l2_normalize has logged its near-zero-norm warning, which it logs once per process.
_near_zero_norm_warned = False


def set_debug_validation(enabled: bool) -> None:
    global DEBUG_VALIDATE
    DEBUG_VALIDATE = enabled


@contextlib.contextmanager
def no_grad():
    """Record no graph inside the block: every op returns a plain tensor,
    with no parents and no backward closure. Nests; the previous state is
    restored on exit, also when the block raises."""
    global GRAD_ENABLED
    previous = GRAD_ENABLED
    GRAD_ENABLED = False
    try:
        yield
    finally:
        GRAD_ENABLED = previous


class Tensor:
    """A dense array plus optional gradient and autodiff bookkeeping."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn", "_op")

    def __init__(self, data, requires_grad=False, dtype=None, _parents=(), _backward_fn=None, _op=""):
        if dtype is None:
            dtype = data.dtype if isinstance(data, np.ndarray) and data.dtype in (np.float32, np.float64) else DEFAULT_DTYPE
        self.data = np.asarray(data, dtype=dtype)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = _parents
        self._backward_fn = _backward_fn
        self._op = _op

    # -- basics ---------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self._op!r}, requires_grad={self.requires_grad})"

    # -- graph ----------------------------------------------------------

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(g, dtype=self.data.dtype, copy=True)
        else:
            self.grad = self.grad + g.astype(self.data.dtype, copy=False)

    def _grad_buffer(self) -> np.ndarray:
        """The gradient, allocated as zeros on first use, for backward
        closures that add into a part of it in place."""
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        return self.grad

    def backward(self) -> None:
        """Reverse pass from a scalar; leaf grads accumulate across calls."""
        if self.data.size != 1:
            raise GraphError(f"backward requires a scalar loss, got shape {self.data.shape}")
        order = _topo_order(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)
        # interior grads are not part of the contract; keep leaves only
        for node in order:
            if node._backward_fn is not None and node is not self:
                node.grad = None

    # -- operator sugar ---------------------------------------------------

    def __add__(self, other):
        return add(self, _lift(other, self.dtype))

    def __radd__(self, other):
        return add(_lift(other, self.dtype), self)

    def __sub__(self, other):
        return sub(self, _lift(other, self.dtype))

    def __rsub__(self, other):
        return sub(_lift(other, self.dtype), self)

    def __mul__(self, other):
        return mul(self, _lift(other, self.dtype))

    def __rmul__(self, other):
        return mul(_lift(other, self.dtype), self)

    def __truediv__(self, other):
        return div(self, _lift(other, self.dtype))

    def __neg__(self):
        return mul(self, _lift(-1.0, self.dtype))

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 or isinstance(shape[0], int) else shape[0])

    def transpose(self, axes):
        return transpose(self, axes)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)


def _lift(x, dtype) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype), dtype=dtype)


def constant(data, dtype=None) -> Tensor:
    return Tensor(np.asarray(data), dtype=dtype or DEFAULT_DTYPE)


def parameter(data, dtype=None) -> Tensor:
    return Tensor(np.asarray(data), requires_grad=True, dtype=dtype or DEFAULT_DTYPE)


def _topo_order(root: Tensor) -> list:
    order, seen = [], set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def _needs_grad(*tensors) -> bool:
    # a loop, not any(<generator>): this runs for every op and backward step
    for t in tensors:
        if t.requires_grad or t._backward_fn is not None:
            return True
    return False


def _make(data, parents, backward_fn, op) -> Tensor:
    if GRAD_ENABLED and _needs_grad(*parents):
        return Tensor(data, dtype=data.dtype, _parents=tuple(parents), _backward_fn=backward_fn, _op=op)
    return Tensor(data, dtype=data.dtype, _op=op)


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum gradient g down to the given (broadcast-source) shape."""
    if g.shape == tuple(shape):
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _sum64(x: np.ndarray, axis=None, keepdims=False) -> np.ndarray:
    """Reduction with 64-bit accumulation, cast back to the input dtype."""
    return x.sum(axis=axis, keepdims=keepdims, dtype=np.float64).astype(x.dtype)


# -- elementwise ----------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data

    def backward_fn(g):
        if _needs_grad(a):
            a._accumulate(_unbroadcast(g, a.shape))
        if _needs_grad(b):
            b._accumulate(_unbroadcast(g, b.shape))

    return _make(out_data, (a, b), backward_fn, "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data - b.data

    def backward_fn(g):
        if _needs_grad(a):
            a._accumulate(_unbroadcast(g, a.shape))
        if _needs_grad(b):
            b._accumulate(_unbroadcast(-g, b.shape))

    return _make(out_data, (a, b), backward_fn, "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data

    def backward_fn(g):
        if _needs_grad(a):
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if _needs_grad(b):
            b._accumulate(_unbroadcast(g * a.data, b.shape))

    return _make(out_data, (a, b), backward_fn, "mul")


def div(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data / b.data

    def backward_fn(g):
        if _needs_grad(a):
            a._accumulate(_unbroadcast(g / b.data, a.shape))
        if _needs_grad(b):
            b._accumulate(_unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return _make(out_data, (a, b), backward_fn, "div")


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


def log(a: Tensor) -> Tensor:
    """Natural log with the argument clamped at 1e-12."""
    clamped = np.maximum(a.data, LOG_CLAMP)
    out_data = np.log(clamped)

    def backward_fn(g):
        a._accumulate(g / clamped)

    return _make(out_data, (a,), backward_fn, "log")


# -- shape ops --------------------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    out_data = a.data.reshape(shape)

    def backward_fn(g):
        a._accumulate(g.reshape(a.shape))

    return _make(out_data, (a,), backward_fn, "reshape")


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    out_data = a.data.transpose(axes)
    inverse = tuple(np.argsort(axes))

    def backward_fn(g):
        a._accumulate(g.transpose(inverse))

    return _make(out_data, (a,), backward_fn, "transpose")


def broadcast_to(a: Tensor, shape) -> Tensor:
    """Repeat ``a`` along new leading or size-1 axes (numpy broadcasting);
    the backward sums the gradient back to ``a``'s shape."""
    out_data = np.broadcast_to(a.data, shape)

    def backward_fn(g):
        a._accumulate(_unbroadcast(g, a.shape))

    return _make(out_data, (a,), backward_fn, "broadcast_to")


def swap_last2(a: Tensor) -> Tensor:
    axes = list(range(a.data.ndim))
    axes[-1], axes[-2] = axes[-2], axes[-1]
    return transpose(a, axes)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = list(tensors)
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward_fn(g):
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if _needs_grad(t):
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(start, stop)
                t._accumulate(g[tuple(idx)])

    return _make(out_data, tuple(tensors), backward_fn, "concat")


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    out_data = a.data[idx].copy()

    def backward_fn(g):
        a._grad_buffer()[idx] += g

    return _make(out_data, (a,), backward_fn, "narrow")


def gather_rows(a: Tensor, indices) -> Tensor:
    """Select rows along axis 0 (embedding lookup); scatter-add backward."""
    indices = np.asarray(indices, dtype=np.int64)
    out_data = a.data[indices]

    def backward_fn(g):
        rows = indices.reshape(-1)
        g_rows = g.reshape((-1,) + a.shape[1:])
        if len(np.unique(rows)) == len(rows):
            a._grad_buffer()[rows] += g_rows  # far faster than np.add.at
        else:
            np.add.at(a._grad_buffer(), rows, g_rows)

    return _make(out_data, (a,), backward_fn, "gather_rows")


def take_last(a: Tensor, indices) -> Tensor:
    """Pick one entry per row along the last axis (for NLL extraction)."""
    indices = np.asarray(indices, dtype=np.int64)
    out_data = np.take_along_axis(a.data, np.expand_dims(indices, axis=-1), axis=-1).squeeze(-1)
    picked = (*np.indices(indices.shape, sparse=True), indices)  # one distinct entry per row

    def backward_fn(g):
        a._grad_buffer()[picked] += g

    return _make(out_data, (a,), backward_fn, "take_last")


# -- reductions --------------------------------------------------------------


def tsum(a: Tensor, axis=None, keepdims=False) -> Tensor:
    out_data = _sum64(a.data, axis=axis, keepdims=keepdims)

    def backward_fn(g):
        if axis is None:
            a._accumulate(np.broadcast_to(g, a.shape))
        else:
            ge = g if keepdims else np.expand_dims(g, axis)
            a._accumulate(np.broadcast_to(ge, a.shape))

    return _make(out_data, (a,), backward_fn, "sum")


def tmean(a: Tensor, axis=None, keepdims=False) -> Tensor:
    if axis is None:
        n = a.data.size
    elif isinstance(axis, tuple):
        n = int(np.prod([a.shape[ax] for ax in axis]))
    else:
        n = a.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), _lift(1.0 / n, a.dtype))


# -- matmul -------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise DimensionError(f"matmul requires >=2-D tensors, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul inner dimensions differ: {a.shape} vs {b.shape}")
    try:
        out_data = np.matmul(a.data, b.data)
    except ValueError as err:
        raise DimensionError(f"matmul batch dims incompatible: {a.shape} vs {b.shape}") from err

    def backward_fn(g):
        if _needs_grad(a):
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            a._accumulate(_unbroadcast(ga, a.shape))
        if _needs_grad(b):
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            b._accumulate(_unbroadcast(gb, b.shape))

    return _make(out_data, (a, b), backward_fn, "matmul")


# -- normalizations and fused ops ---------------------------------------------


def softmax_rows(x: Tensor, temperature: float = 1.0) -> Tensor:
    """Row softmax over the last axis of logits divided by ``temperature``."""
    if temperature <= 0:
        raise ParameterError(f"softmax temperature must be positive, got {temperature}")
    z = x.data / temperature
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    out_data = e / _sum64(e, axis=-1, keepdims=True)

    def backward_fn(g):
        inner = _sum64(g * out_data, axis=-1, keepdims=True)
        x._accumulate((g - inner) * out_data / temperature)

    return _make(out_data.astype(x.dtype), (x,), backward_fn, "softmax_rows")


def log_softmax_rows(x: Tensor, temperature: float = 1.0) -> Tensor:
    if temperature <= 0:
        raise ParameterError(f"softmax temperature must be positive, got {temperature}")
    z = x.data / temperature
    z = z - z.max(axis=-1, keepdims=True)
    lse = np.log(_sum64(np.exp(z), axis=-1, keepdims=True))
    out_data = (z - lse).astype(x.dtype)
    soft = np.exp(out_data)

    def backward_fn(g):
        inner = _sum64(g, axis=-1, keepdims=True)
        x._accumulate((g - soft * inner) / temperature)

    return _make(out_data, (x,), backward_fn, "log_softmax_rows")


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    if eps <= 0:
        raise ParameterError(f"layer_norm eps must be positive, got {eps}")
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise DimensionError(f"layer_norm gain/bias must have shape ({d},), got {gain.shape} and {bias.shape}")
    mu = x.data.mean(axis=-1, keepdims=True, dtype=np.float64)
    var = ((x.data.astype(np.float64) - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = (1.0 / np.sqrt(var + eps)).astype(x.dtype)
    xhat = ((x.data - mu.astype(x.dtype)) * inv).astype(x.dtype)
    out_data = xhat * gain.data + bias.data

    def backward_fn(g):
        if _needs_grad(x):
            dxhat = g * gain.data
            m1 = dxhat.mean(axis=-1, keepdims=True, dtype=np.float64).astype(x.dtype)
            m2 = (dxhat * xhat).mean(axis=-1, keepdims=True, dtype=np.float64).astype(x.dtype)
            x._accumulate(inv * (dxhat - m1 - xhat * m2))
        lead = tuple(range(g.ndim - 1))
        if _needs_grad(gain):
            gain._accumulate(_sum64(g * xhat, axis=lead))
        if _needs_grad(bias):
            bias._accumulate(_sum64(g, axis=lead))

    return _make(out_data, (x, gain, bias), backward_fn, "layer_norm")


def l2_normalize(x: Tensor) -> Tensor:
    """Scale each last-axis row to unit Euclidean norm (eps-guarded)."""
    global _near_zero_norm_warned
    norm = np.sqrt(_sum64(x.data * x.data, axis=-1, keepdims=True).astype(np.float64)).astype(x.dtype)
    if np.any(norm < 1e-8) and not _near_zero_norm_warned:
        _near_zero_norm_warned = True
        _logger.warning("l2_normalize: near-zero row norm encountered; eps guard applied (logged once)")
    denom = norm + np.asarray(L2_EPS, dtype=x.dtype)
    out_data = x.data / denom

    def backward_fn(g):
        norm_safe = np.maximum(norm, L2_EPS)
        inner = _sum64(g * x.data, axis=-1, keepdims=True)
        x._accumulate(g / denom - x.data * (inner / (norm_safe * denom * denom)))

    return _make(out_data, (x,), backward_fn, "l2_normalize")


def scaled_dot_attention(q: Tensor, k: Tensor, v: Tensor, key_mask: np.ndarray | None = None) -> Tensor:
    """softmax(q @ k^T / sqrt(d)) @ v over the last two axes.

    ``key_mask`` is a boolean array broadcastable to the score shape
    [..., Lq, Lk]: True where a query may attend to a key. Masked scores
    get ``NEG_INF``, so their softmax weight is exactly 0; every query
    needs at least one attendable key.
    """
    if k.shape[-2] == 0:
        raise EmptyKeyError("scaled_dot_attention called with zero keys")
    d = q.shape[-1]
    if k.shape[-1] != d:
        raise DimensionError(f"attention dims differ: q {q.shape}, k {k.shape}")
    if v.shape[-2] != k.shape[-2]:
        raise DimensionError(f"keys/values length mismatch: k {k.shape}, v {v.shape}")
    scores = matmul(q, swap_last2(k)) * (1.0 / math.sqrt(d))
    if key_mask is not None:
        if np.asarray(key_mask).dtype != bool:
            raise ParameterError(f"key_mask must be boolean, got dtype {np.asarray(key_mask).dtype}")
        scores = scores + constant(np.where(key_mask, 0.0, NEG_INF), dtype=q.dtype)
    weights = softmax_rows(scores)
    return matmul(weights, v)


def cross_entropy_rows(target_p: Tensor, pred_q: Tensor) -> Tensor:
    """Mean-over-rows cross entropy -(1/n) sum_ij p_ij log q_ij."""
    if target_p.shape != pred_q.shape:
        raise DimensionError(f"cross_entropy_rows shape mismatch: {target_p.shape} vs {pred_q.shape}")
    if DEBUG_VALIDATE:
        for name, t in (("target_p", target_p), ("pred_q", pred_q)):
            sums = _sum64(t.data, axis=-1)
            if not np.allclose(sums, 1.0, atol=1e-5):
                raise ValidationError(f"cross_entropy_rows: {name} rows are not stochastic (sums={sums})")
    n = int(np.prod(target_p.shape[:-1])) if target_p.data.ndim > 1 else 1
    per_entry = mul(target_p, log(pred_q))
    return mul(tsum(per_entry), _lift(-1.0 / n, target_p.dtype))


# -- convolution ---------------------------------------------------------------


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, pad: int):
    """[N, H, W, C] -> columns [N*Ho*Wo, C*kh*kw] in (c, kh, kw) order."""
    n, h, w, c = x.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    s0, s1, s2, s3 = xp.strides
    view = np.lib.stride_tricks.as_strided(
        xp,
        shape=(n, ho, wo, c, kh, kw),
        strides=(s0, s1 * stride, s2 * stride, s3, s1, s2),
        writeable=False,
    )
    return view.reshape(n * ho * wo, c * kh * kw), ho, wo


def _col2im(gtaps: np.ndarray, x_shape, ho: int, wo: int, stride: int, pad: int):
    """Per-tap input gradients [kh, kw, N*Ho*Wo, C] -> [N, H, W, C]."""
    n, h, w, c = x_shape
    kh, kw = gtaps.shape[:2]
    gx = np.zeros((n, h + 2 * pad, w + 2 * pad, c), dtype=gtaps.dtype)
    taps = gtaps.reshape(kh, kw, n, ho, wo, c)
    for i in range(kh):
        for j in range(kw):
            gx[:, i : i + stride * ho : stride, j : j + stride * wo : stride] += taps[i, j]
    if pad:
        gx = gx[:, pad:-pad, pad:-pad]
    return gx


def conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D convolution via im2col, channels last: [N, H, W, C] * [O, C, kh, kw] -> [N, Ho, Wo, O]."""
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise DimensionError(f"conv2d expects 4-D input/weight, got {x.shape} and {w.shape}")
    if x.shape[3] != w.shape[1]:
        raise DimensionError(f"conv2d channel mismatch: input {x.shape} vs weight {w.shape}")
    o, _, kh, kw = w.shape
    cols, ho, wo = _im2col(x.data, kh, kw, stride, padding)
    wmat = w.data.reshape(o, -1)
    out = cols @ wmat.T + b.data

    def backward_fn(g):
        gmat = g.reshape(-1, o)
        if _needs_grad(w):
            w._accumulate((gmat.T @ cols).reshape(w.shape))
        if _needs_grad(b):
            b._accumulate(_sum64(gmat, axis=0))
        if _needs_grad(x):
            # one GEMM per tap: [rows, O] @ [O, C] for each (i, j)
            gtaps = np.matmul(gmat, np.ascontiguousarray(w.data.transpose(2, 3, 0, 1)))
            x._accumulate(_col2im(gtaps, x.shape, ho, wo, stride, padding))

    return _make(out.reshape(x.shape[0], ho, wo, o), (x, w, b), backward_fn, "conv2d")


# -- small helpers used by model code -------------------------------------------


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b over the last axis."""
    return matmul(x, w) + b

