"""Minimal dense-tensor engine with reverse-mode automatic differentiation.

Tensors wrap row-major numpy arrays (float32 by default; float64 is
supported for verification). The graph is rebuilt per step: every op
records its parents and a backward closure, and ``backward()`` on a
scalar runs the tape once in reverse topological order, accumulating
gradients additively at fan-out. Inside ``no_grad()`` no graph is
recorded, for forwards whose graph nothing reads, and ops skip the work
only their backward reads. ``attention_kernel`` and ``layer_norm_kernel``
are the forward arithmetic of ``scaled_dot_attention`` and ``layer_norm``
on plain arrays, for callers that build no nodes at all.

Run-once rule: a graph is consumed by its backward, which releases the
tape as it moves down it. Each node's closure runs once and is then
replaced by ``_consumed``, and the node drops its parents, so the arrays
the closure captured, and every node nothing else holds, are freed with
their ``.data`` once the pass has left them. After ``backward()`` a walk
over ``_parents`` from the root finds nothing; nodes the pass did not run
keep their parents. A later ``backward()`` that reaches a consumed node,
from the same root or from a new loss built on one of its nodes, raises
``GraphError`` before any gradient is written. Graphs that share only
leaves still accumulate into the leaves' gradients.

Ownership rule: no gradient array is ever written in place. A closure
hands its parent any array, a view of the upstream gradient included,
and ``_accumulate`` keeps it uncopied or sums it into a new array.
Forward data is overwritten only in an array the op has just made and
no node has consumed yet (the ReLU of ``conv2d_relu`` and ``affine_relu``,
``affine``'s bias). Fused ops keep only what their backward reads:
``add_layer_norm`` keeps no sum of its operands.

Reductions accumulate in 64-bit regardless of the storage dtype.
Softmax sets masked logits to NEG_INF and subtracts the row max before
exponentiation; log clamps its argument at 1e-12.

Importing this module changes how the whole process allocates memory
(glibc only, see ``_retain_freed_memory``): every block up to 32 MiB
comes from the heap, freed heap pages stay in the process, and every
thread allocates from the one main heap.

``conv2d`` splits large convolutions into tasks that each write their own
slice of an output array, and runs them on the calling thread and the one
thread of a ``concurrent.futures`` pool (``_parallel``); at one BLAS
thread every result has the bytes of the one-task computation. Each call
chooses once, from its size and the CPUs the process may run on, between
that and running every part on the calling thread. The pool is made by
the first threaded call, and a forked child starts without one.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import itertools
import logging
import math
import os

import numpy as np

from .errors import DimensionError, EmptyKeyError, GraphError, ParameterError

_logger = logging.getLogger(__name__)

DEFAULT_DTYPE = np.float32
LOG_CLAMP = 1e-12
L2_EPS = 1e-12
LN_EPS = 1e-5
# The logit softmax_rows and log_softmax_rows give a masked entry; exp() of it underflows to exactly 0.
NEG_INF = -1e9


def _retain_freed_memory() -> None:
    """Keep the 4-20 MB temporaries of a training step in the process.

    By default glibc serves such blocks with mmap and unmaps them on free,
    or returns freed pages at the heap top to the kernel, which must zero
    and fault them in again at the next step. An mmap threshold of 32 MiB
    puts them on the heap, and a trim threshold of 1 GiB keeps freed heap
    pages mapped. This applies to every allocation of the process; peak
    memory grows by a few percent at most. The trim threshold is set only once the mmap
    threshold was accepted: either value set alone turns off glibc's
    dynamic threshold, and the trim threshold alone faults more than the
    default. One malloc arena (``M_ARENA_MAX``) keeps the blocks that
    the thread of ``_parallel``'s pool allocates and frees in the same
    heap as the main thread's, so the two reuse each other's pages; an
    arena per thread would hold its own copy of them. Without glibc's
    ``mallopt`` nothing changes.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt  # not find_library, which starts an ldconfig process
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold, m_arena_max = -1, -3, -8  # from glibc's malloc.h
    if mallopt(m_mmap_threshold, 32 << 20) == 1:  # 32 MiB is the largest value glibc accepts on 64-bit
        mallopt(m_trim_threshold, 1 << 30)
    mallopt(m_arena_max, 1)


_retain_freed_memory()

# conv2d splits its work into tasks from this many output rows (N * Ho * Wo) up;
# below it, handing tasks to the pool thread costs more than that thread saves.
_PARALLEL_MIN_ROWS = 4096
# OpenBLAS's AVX-512 kernels compute a GEMM of at most this many
# multiply-adds with a small-matrix kernel that sums the inner axis in one
# pass, and a larger one in blocks, so the two round a long sum differently.
# conv2d splits its weight gradient's columns only where both halves stay
# above it: that GEMM sums over all rows.
_SMALL_GEMM = 10**6
# _parallel's one-thread pool, once the first _parallel call has made it (a
# list, so that making it rebinds no module name). A forked child keeps no
# thread of its parent, so it starts with no pool and makes its own.
_pool = []
if hasattr(os, "register_at_fork"):  # where there is no fork there is nothing to reset
    os.register_at_fork(after_in_child=_pool.clear)

# When False, ops record no graph (see no_grad).
GRAD_ENABLED = True
# Set once l2_normalize has logged its near-zero-norm warning, which it logs once per process.
_near_zero_norm_warned = False


@functools.cache
def _cpu_count() -> int:
    """The number of CPUs this process may run on; 1 where the platform cannot tell."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has it
        return 1


def _parallel(tasks: list) -> list:
    """Run zero-argument callables and return their results in task order.

    The calling thread and the pool's thread each take the next task from
    one shared counter until none is left, so each task runs once, on
    either thread; tasks must write disjoint memory and must not call
    ``_parallel`` (the pool's one thread would wait for itself). Once all
    tasks have finished, the first exception in task order is raised here."""
    if not _pool:
        import concurrent.futures  # here, not at import: only a threaded conv2d needs it

        _pool.append(concurrent.futures.ThreadPoolExecutor(max_workers=1, thread_name_prefix="mvreport-autodiff"))
    results, errors = [None] * len(tasks), [None] * len(tasks)
    claim = itertools.count().__next__  # one C call, so no two threads get the same index

    def drain():
        while (i := claim()) < len(tasks):
            try:
                results[i] = tasks[i]()
            except Exception as err:  # raised in the caller once every task has finished
                errors[i] = err

    helper = _pool[0].submit(drain)
    drain()
    helper.result()
    for err in errors:
        if err is not None:
            raise err
    return results


def _spans(n: int, parts: int) -> list:
    """``range(n)`` cut into ``parts`` near-equal ``(start, stop)`` spans, without empty ones."""
    bounds = [n * i // parts for i in range(parts + 1)]
    return [(start, stop) for start, stop in zip(bounds, bounds[1:]) if stop > start]


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

    def __init__(self, data, requires_grad=False, dtype=None):
        if dtype is None:
            dtype = data.dtype if isinstance(data, np.ndarray) and data.dtype in (np.float32, np.float64) else DEFAULT_DTYPE
        # np.asarray would return such an array as it is, only slower
        self.data = data if type(data) is np.ndarray and data.dtype == dtype else np.asarray(data, dtype=dtype)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward_fn = None
        self._op = ""

    # -- basics ---------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self._op!r}, requires_grad={self.requires_grad})"

    # -- graph ----------------------------------------------------------

    def _accumulate(self, g: np.ndarray) -> None:
        """Add ``g`` into the gradient; a first ``g`` becomes it, uncopied
        (it may be a view, shared or read-only: no gradient is written in place)."""
        g = g.astype(self.data.dtype, copy=False)
        self.grad = g if self.grad is None else self.grad + g

    def backward(self) -> None:
        """Reverse pass from a scalar; leaf grads accumulate across calls.

        Runs each closure once and releases the tape as it goes: nodes are
        popped off the topological order, and as soon as a node's closure
        has run it is replaced by ``_consumed``, the node's parents are
        dropped, and an interior node's gradient is dropped too (every
        consumer of the node comes before it in reverse order). A node
        nothing else holds is then freed with its ``.data``; the root keeps
        its gradient. A graph with a consumed node raises ``GraphError``,
        before any gradient is written: a second ``backward()`` on the same
        root, or on a new loss built on a node of a consumed graph."""
        if self.data.size != 1:
            raise GraphError(f"backward requires a scalar loss, got shape {self.data.shape}")
        order = _topo_order(self)
        for node in order:
            if node._backward_fn is _consumed:
                _consumed(None)
        self.grad = np.ones_like(self.data)
        while order:
            node = order.pop()
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)
                node._backward_fn = _consumed
                node._parents = ()
                if node is not self:
                    node.grad = None

    # -- operator sugar ---------------------------------------------------

    def __add__(self, other):
        return add(self, _lift(other, self.dtype))

    def __mul__(self, other):
        return mul(self, _lift(other, self.dtype))

    def __neg__(self):
        return mul(self, _lift(-1.0, self.dtype))


def _lift(x, dtype) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype), dtype=dtype)


def constant(data, dtype=None) -> Tensor:
    return Tensor(np.asarray(data), dtype=dtype or DEFAULT_DTYPE)


def parameter(data, dtype=None) -> Tensor:
    return Tensor(np.asarray(data), requires_grad=True, dtype=dtype or DEFAULT_DTYPE)


def _consumed(g):
    """The closure of a node whose closure has run: the arrays it captured
    are freed, so its gradient cannot be computed again."""
    raise GraphError("backward reached a graph that an earlier backward() consumed; rebuild it with a new forward")


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


def _recording(*tensors) -> bool:
    """Whether an op on ``tensors`` records a node: its backward-only work can be skipped otherwise."""
    return GRAD_ENABLED and _needs_grad(*tensors)


def _make(data, parents: tuple, backward_fn, op) -> Tensor:
    """The op's output node over ``data``; it records ``parents`` and
    ``backward_fn`` only when one of them needs a gradient and a graph is
    recorded. A non-ndarray (a full reduction returns a NumPy scalar) is
    wrapped as a 0-d array. Fills the slots directly: this runs per op."""
    out = Tensor.__new__(Tensor)
    out.data = data if type(data) is np.ndarray else np.asarray(data)
    out.requires_grad = False
    out.grad = None
    if GRAD_ENABLED and _needs_grad(*parents):
        out._parents, out._backward_fn = parents, backward_fn
    else:
        out._parents, out._backward_fn = (), None
    out._op = op
    return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum gradient g down to the given (broadcast-source) shape, in one
    64-bit reduction over the leading and the stretched axes."""
    shape = tuple(shape)
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    axes = (*range(extra), *(extra + i for i, n in enumerate(shape) if n == 1 and g.shape[extra + i] != 1))
    return _sum64(g, axis=axes, keepdims=True).reshape(shape)


def _sum64(x: np.ndarray, axis=None, keepdims=False) -> np.ndarray:
    """Reduction with 64-bit accumulation, cast back to the input dtype
    (np.add.reduce is what ndarray.sum calls, without its Python-level wrapper)."""
    return np.add.reduce(x, axis=axis, dtype=np.float64, keepdims=keepdims).astype(x.dtype)


# -- elementwise ----------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data

    def backward_fn(g):
        if _needs_grad(a):
            a._accumulate(_unbroadcast(g, a.shape))
        if _needs_grad(b):
            b._accumulate(_unbroadcast(g, b.shape))

    return _make(out_data, (a, b), backward_fn, "add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data

    def backward_fn(g):
        if _needs_grad(a):
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if _needs_grad(b):
            b._accumulate(_unbroadcast(g * a.data, b.shape))

    return _make(out_data, (a, b), backward_fn, "mul")


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
    if not _recording(a):
        return _make(out_data, (), None, "transpose")
    inverse = tuple(sorted(range(len(axes)), key=axes.__getitem__))  # np.argsort is slower on a tuple

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
    n = a.data.ndim
    return transpose(a, (*range(n - 2), n - 1, n - 2))


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = list(tensors)
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = list(itertools.accumulate((t.shape[axis] for t in tensors), initial=0))

    def backward_fn(g):
        for t, start, stop in zip(tensors, offsets, offsets[1:]):
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
        ga = np.zeros_like(a.data)
        ga[idx] = g
        a._accumulate(ga)

    return _make(out_data, (a,), backward_fn, "narrow")


def gather_rows(a: Tensor, indices) -> Tensor:
    """Select rows along axis 0 (embedding lookup); scatter-add backward."""
    indices = np.asarray(indices, dtype=np.int64)
    rows = a.data.shape[0]
    if indices.size and (indices.min() < 0 or indices.max() >= rows):
        raise DimensionError(f"gather_rows ids must lie in [0, {rows}), got {indices.min()}..{indices.max()}")
    out_data = a.data[indices]

    def backward_fn(g):
        rows = indices.reshape(-1)
        g_rows = g.reshape((-1,) + a.shape[1:])
        ga = np.zeros_like(a.data)
        ordered = np.sort(rows)  # NumPy 2.4's np.unique hashes ints: ~60x slower at 2e5 rows
        new_id = ordered[1:] != ordered[:-1]
        if new_id.all():
            ga[rows] = g_rows  # far faster than np.add.at
        else:
            # segment sum, far faster than np.add.at: group equal ids (stably,
            # so each group keeps its rows' order) and sum each group in 64-bit
            starts = np.flatnonzero(np.r_[True, new_id])
            grouped = g_rows[np.argsort(rows, kind="stable")]
            ga[ordered[starts]] = np.add.reduceat(grouped, starts, axis=0, dtype=np.float64)
        a._accumulate(ga)

    return _make(out_data, (a,), backward_fn, "gather_rows")


def take_last(a: Tensor, indices) -> Tensor:
    """Pick one entry per row along the last axis (for NLL extraction)."""
    indices = np.asarray(indices, dtype=np.int64)
    out_data = np.take_along_axis(a.data, np.expand_dims(indices, axis=-1), axis=-1).squeeze(-1)
    if not _recording(a):
        return _make(out_data, (), None, "take_last")
    picked = (*np.indices(indices.shape, sparse=True), indices)  # one distinct entry per row

    def backward_fn(g):
        ga = np.zeros_like(a.data)
        ga[picked] = g
        a._accumulate(ga)

    return _make(out_data, (a,), backward_fn, "take_last")


# -- reductions --------------------------------------------------------------


def tsum(a: Tensor, axis=None, keepdims=False) -> Tensor:
    out_data = _sum64(a.data, axis=axis, keepdims=keepdims)

    def backward_fn(g):
        a._accumulate(np.broadcast_to(g if axis is None or keepdims else np.expand_dims(g, axis), a.shape))

    return _make(out_data, (a,), backward_fn, "sum")


def tmean(a: Tensor, axis=None, keepdims=False) -> Tensor:
    total = tsum(a, axis=axis, keepdims=keepdims)
    # the correctly rounded 1 / n, as 1.0 / n is, for n summed entries per output
    return mul(total, _lift(total.data.size / a.data.size, a.dtype))


# -- matmul -------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a_shape, b_shape = a.data.shape, b.data.shape
    if len(a_shape) < 2 or len(b_shape) < 2:
        raise DimensionError(f"matmul requires >=2-D tensors, got {a_shape} and {b_shape}")
    if a_shape[-1] != b_shape[-2]:
        raise DimensionError(f"matmul inner dimensions differ: {a_shape} vs {b_shape}")
    try:
        out_data = np.matmul(a.data, b.data)
    except ValueError as err:
        raise DimensionError(f"matmul batch dims incompatible: {a_shape} vs {b_shape}") from err

    def backward_fn(g):
        if b.data.ndim == 2:
            # [..., d] @ [d, k]: fold the batch axes into rows, one 2-D GEMM
            # per gradient (the forward stays batched, which is faster there)
            d, k = b.shape
            g2 = g.reshape(-1, k)
            if _needs_grad(a):
                a._accumulate((g2 @ b.data.T).reshape(a.shape))
            if _needs_grad(b):
                b._accumulate(a.data.reshape(-1, d).T @ g2)
            return
        if _needs_grad(a):
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            a._accumulate(_unbroadcast(ga, a.shape))
        if _needs_grad(b):
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            b._accumulate(_unbroadcast(gb, b.shape))

    return _make(out_data, (a, b), backward_fn, "matmul")


# -- normalizations and fused ops ---------------------------------------------


def _shifted_logits(x: np.ndarray, temperature: float, key_mask) -> np.ndarray:
    """``x / temperature`` with masked entries set to ``NEG_INF``, minus the row max."""
    if temperature <= 0:
        raise ParameterError(f"softmax temperature must be positive, got {temperature}")
    z = x if temperature == 1.0 else x / temperature  # dividing by 1.0 is exact
    if key_mask is not None:
        key_mask = np.asarray(key_mask)
        if key_mask.dtype != bool:
            raise ParameterError(f"key_mask must be boolean, got dtype {key_mask.dtype}")
        z = np.where(key_mask, z, NEG_INF)
    return z - np.maximum.reduce(z, axis=-1, keepdims=True)  # ndarray.max without its Python-level wrapper


def _softmax(x: np.ndarray, temperature: float, key_mask) -> np.ndarray:
    e = np.exp(_shifted_logits(x, temperature, key_mask))
    return (e / _sum64(e, axis=-1, keepdims=True)).astype(x.dtype, copy=False)


def softmax_rows(x: Tensor, temperature: float = 1.0, key_mask: np.ndarray | None = None) -> Tensor:
    """Row softmax over the last axis of logits divided by ``temperature``; where the boolean
    ``key_mask`` (broadcastable to ``x``) is False, the weight is exactly 0 if the row has a True entry."""
    out_data = _softmax(x.data, temperature, key_mask)

    def backward_fn(g):
        inner = _sum64(g * out_data, axis=-1, keepdims=True)
        x._accumulate((g - inner) * out_data / temperature)

    return _make(out_data, (x,), backward_fn, "softmax_rows")


def log_softmax_rows(x: Tensor, temperature: float = 1.0, key_mask: np.ndarray | None = None) -> Tensor:
    """Row log-softmax, as ``softmax_rows``; outputs at masked entries are very negative, not meaningful."""
    z = _shifted_logits(x.data, temperature, key_mask)
    lse = np.log(_sum64(np.exp(z), axis=-1, keepdims=True))
    out_data = (z - lse).astype(x.dtype, copy=False)
    if not _recording(x):
        return _make(out_data, (), None, "log_softmax_rows")
    soft = np.exp(out_data)

    def backward_fn(g):
        inner = _sum64(g, axis=-1, keepdims=True)
        x._accumulate((g - soft * inner) / temperature)

    return _make(out_data, (x,), backward_fn, "log_softmax_rows")


def _layer_norm_parts(data: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> tuple:
    """Layer norm of ``data`` over its last axis, with the ``xhat`` and ``inv`` its backward reads."""
    d = data.shape[-1]
    dtype = data.dtype
    # np.add.reduce(...) / d is what ndarray.mean computes, without its Python-level wrapper
    mu = np.add.reduce(data, axis=-1, dtype=np.float64, keepdims=True) / d
    centered = data.astype(np.float64) - mu
    var = np.add.reduce(centered * centered, axis=-1, keepdims=True) / d
    inv = (1.0 / np.sqrt(var + LN_EPS)).astype(dtype)
    xhat = (data - mu.astype(dtype)) * inv
    return xhat * gain + bias, xhat, inv


def layer_norm_kernel(data: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """``layer_norm`` on arrays, with the same arithmetic; records nothing."""
    return _layer_norm_parts(data, gain, bias)[0]


def _layer_norm(data: np.ndarray, inputs: tuple, gain: Tensor, bias: Tensor, op: str) -> Tensor:
    """Layer norm of the array ``data`` as one node on ``inputs``, gain and
    bias; each of ``inputs`` gets the whole input gradient. The backward
    holds ``xhat``, ``inv`` and the dtype, not ``data``."""
    d = data.shape[-1]
    gain_shape, bias_shape = gain.data.shape, bias.data.shape
    if gain_shape != (d,) or bias_shape != (d,):
        raise DimensionError(f"{op} gain/bias must have shape ({d},), got {gain_shape} and {bias_shape}")
    out_data, xhat, inv = _layer_norm_parts(data, gain.data, bias.data)
    dtype = data.dtype

    def backward_fn(g):
        if _needs_grad(*inputs):
            dxhat = g * gain.data
            m1 = (np.add.reduce(dxhat, axis=-1, dtype=np.float64, keepdims=True) / d).astype(dtype)
            m2 = (np.add.reduce(dxhat * xhat, axis=-1, dtype=np.float64, keepdims=True) / d).astype(dtype)
            gx = inv * (dxhat - m1 - xhat * m2)
            for t in inputs:
                if _needs_grad(t):
                    t._accumulate(gx)
        lead = tuple(range(g.ndim - 1))
        if _needs_grad(gain):
            gain._accumulate(_sum64(g * xhat, axis=lead))
        if _needs_grad(bias):
            bias._accumulate(_sum64(g, axis=lead))

    return _make(out_data, (*inputs, gain, bias), backward_fn, op)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    return _layer_norm(x.data, (x,), gain, bias, "layer_norm")


def add_layer_norm(x: Tensor, y: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """``layer_norm(x + y, gain, bias)`` for two tensors of one shape, as one
    node that keeps no sum: x and y both get its input gradient, as ``add``
    passes its upstream gradient to both parents."""
    if x.data.shape != y.data.shape:
        raise DimensionError(f"add_layer_norm operands differ in shape: {x.data.shape} vs {y.data.shape}")
    return _layer_norm(x.data + y.data, (x, y), gain, bias, "add_layer_norm")


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


def attention_kernel(q: np.ndarray, k: np.ndarray, v: np.ndarray, key_mask: np.ndarray | None) -> np.ndarray:
    """``scaled_dot_attention`` on arrays, with the same arithmetic as its
    matmul, mul, softmax_rows and matmul nodes; checks and records nothing."""
    scores = np.matmul(q, k.swapaxes(-1, -2))
    scores *= np.asarray(1.0 / math.sqrt(q.shape[-1]), dtype=scores.dtype)
    return np.matmul(_softmax(scores, 1.0, key_mask), v)


def scaled_dot_attention(q: Tensor, k: Tensor, v: Tensor, key_mask: np.ndarray | None = None) -> Tensor:
    """softmax(q @ k^T / sqrt(d)) @ v over the last two axes.

    ``key_mask`` is a boolean array broadcastable to the score shape
    [..., Lq, Lk]: True where a query may attend to a key. ``softmax_rows``
    applies it, so masked keys get weight exactly 0; every query needs at
    least one attendable key.
    """
    q_shape, k_shape, v_shape = q.data.shape, k.data.shape, v.data.shape
    if k_shape[-2] == 0:
        raise EmptyKeyError("scaled_dot_attention called with zero keys")
    d = q_shape[-1]
    if k_shape[-1] != d:
        raise DimensionError(f"attention dims differ: q {q_shape}, k {k_shape}")
    if v_shape[-2] != k_shape[-2]:
        raise DimensionError(f"keys/values length mismatch: k {k_shape}, v {v_shape}")
    if not _recording(q, k, v):
        return _make(attention_kernel(q.data, k.data, v.data, key_mask), (), None, "scaled_dot_attention")
    scores = matmul(q, swap_last2(k))
    scale = Tensor(np.asarray(1.0 / math.sqrt(d), dtype=scores.data.dtype))
    return matmul(softmax_rows(mul(scores, scale), key_mask=key_mask), v)


def cross_entropy_rows(target_p: Tensor, pred_q: Tensor) -> Tensor:
    """Mean-over-rows cross entropy -(1/n) sum_ij p_ij log q_ij."""
    if target_p.shape != pred_q.shape:
        raise DimensionError(f"cross_entropy_rows shape mismatch: {target_p.shape} vs {pred_q.shape}")
    n = int(np.prod(target_p.shape[:-1])) if target_p.data.ndim > 1 else 1
    per_entry = mul(target_p, log(pred_q))
    return mul(tsum(per_entry), _lift(-1.0 / n, target_p.dtype))


# -- convolution ---------------------------------------------------------------


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, pad: int, out: np.ndarray):
    """[N, H, W, C] -> columns [N*Ho*Wo, kh*kw*C] in (kh, kw, c) order,
    written into ``out``, an array of that shape (each ``conv2d`` task
    fills its own rows of one array); returns ``(out, Ho, Wo)``."""
    n, h, w, c = x.shape
    xp = np.zeros((n, h + 2 * pad, w + 2 * pad, c), dtype=x.dtype)  # np.pad is slower
    xp[:, pad : pad + h, pad : pad + w] = x
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    s0, s1, s2, s3 = xp.strides
    view = np.lib.stride_tricks.as_strided(
        xp,
        shape=(n, ho, wo, kh, kw, c),
        strides=(s0, s1 * stride, s2 * stride, s1, s2, s3),
        writeable=False,
    )
    out.reshape(view.shape)[...] = view
    return out, ho, wo


def _tap_slices(k: int, stride: int, pad: int, size: int, out_size: int) -> list:
    """Per kernel offset along one axis: the output positions whose tap lands
    inside the unpadded input, and the input positions they land on."""
    slices = []
    for offset in range(k):
        o0 = max(0, -((offset - pad) // stride))  # ceil((pad - offset) / stride)
        o1 = max(o0, min(out_size, (size - 1 + pad - offset) // stride + 1))
        y0 = o0 * stride + offset - pad
        slices.append((slice(o0, o1), slice(y0, y0 + stride * (o1 - o0), stride)))
    return slices


def _phase_taps(k: int, stride: int, pad: int, size: int, out_size: int) -> list:
    """``_tap_slices`` grouped by input phase ``y % stride``: per phase, in
    kernel-offset order, the offset, its output positions and the positions
    they land on in the phase's grid ``y // stride``."""
    phases = [[] for _ in range(stride)]
    for offset, (out_pos, in_pos) in enumerate(_tap_slices(k, stride, pad, size, out_size)):
        start = in_pos.start // stride
        phases[in_pos.start % stride].append((offset, out_pos, slice(start, start + out_pos.stop - out_pos.start)))
    return phases


def _conv_input_grad(gmat: np.ndarray, wt: np.ndarray, gx: np.ndarray, ho: int, wo: int, stride: int, pad: int):
    """Write into ``gx`` [n, H, W, C] the input gradient of n views from
    their output gradient ``gmat`` [n*Ho*Wo, O] and the weight ``wt``
    [kh, kw, O, C]: one [rows, O] @ [O, C] GEMM per tap into one [rows, C]
    buffer; the taps that land on one phase gx[:, py::s, px::s] are summed,
    in tap order, in one zeroed contiguous buffer, which then fills that
    phase of gx (at stride 1 the one phase is gx itself)."""
    n, h, wd, c = gx.shape
    kh, kw = wt.shape[:2]
    tap = np.empty((n, ho, wo, c), dtype=gx.dtype)
    phase = gx if stride == 1 else np.empty((n, -(-h // stride), -(-wd // stride), c), dtype=gx.dtype)
    row_taps, col_taps = _phase_taps(kh, stride, pad, h, ho), _phase_taps(kw, stride, pad, wd, wo)
    for py, px in itertools.product(range(stride), repeat=2):
        buf = phase[:, : len(range(py, h, stride)), : len(range(px, wd, stride))]
        buf[...] = 0
        for i, out_rows, buf_rows in row_taps[py]:
            for j, out_cols, buf_cols in col_taps[px]:
                np.matmul(gmat, wt[i, j], out=tap.reshape(-1, c))
                buf[:, buf_rows, buf_cols] += tap[:, out_rows, out_cols]
        if phase is not gx:
            gx[:, py::stride, px::stride] = buf


def conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D convolution via im2col, channels last: [N, H, W, C] * [O, C, kh, kw] -> [N, Ho, Wo, O].

    From ``_PARALLEL_MIN_ROWS`` output rows up, and with more than one CPU,
    the work runs as ``_parallel`` tasks that each write their own slice of
    an output array, with the bytes of the one-task computation: the
    forward and the input gradient per quarter of the views, the weight
    gradient per half of the columns (see ``_SMALL_GEMM``), and the bias
    gradient. Below that, each part is one task on the calling thread."""
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise DimensionError(f"conv2d expects 4-D input/weight, got {x.shape} and {w.shape}")
    if x.shape[3] != w.shape[1]:
        raise DimensionError(f"conv2d channel mismatch: input {x.shape} vs weight {w.shape}")
    o, c, kh, kw = w.shape
    n, h, wd, _ = x.shape
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wd + 2 * padding - kw) // stride + 1
    rows_per_view = ho * wo
    split = n * rows_per_view >= _PARALLEL_MIN_ROWS and _cpu_count() > 1
    run = _parallel if split else (lambda tasks: [task() for task in tasks])
    views = _spans(n, 4 if split else 1)
    wmat = w.data.transpose(0, 2, 3, 1).reshape(o, -1)  # (kh, kw, c) order, as the columns
    cols = np.empty((n * rows_per_view, kh * kw * c), dtype=x.dtype)
    out = np.empty((n * rows_per_view, o), dtype=np.result_type(cols, wmat))

    def forward(start, stop):
        rows = slice(start * rows_per_view, stop * rows_per_view)
        _im2col(x.data[start:stop], kh, kw, stride, padding, out=cols[rows])
        np.matmul(cols[rows], wmat.T, out=out[rows])
        out[rows] += b.data

    run([functools.partial(forward, start, stop) for start, stop in views])

    def backward_fn(g):
        nonlocal cols
        gmat = g.reshape(-1, o)
        tasks = []
        if _needs_grad(b):
            # the bias sum is the first task: at C=1 it outlasts the whole weight GEMM
            tasks.append(functools.partial(_sum64, gmat, axis=0))
        if _needs_grad(w):
            gw = np.empty((o, cols.shape[1]), dtype=np.result_type(gmat, cols))
            halves = split and o * (cols.shape[1] // 2) * cols.shape[0] > _SMALL_GEMM
            for start, stop in _spans(cols.shape[1], 2 if halves else 1):
                tasks.append(functools.partial(np.matmul, gmat.T, cols[:, start:stop], out=gw[:, start:stop]))
        results = run(tasks)
        tasks = cols = None  # their last use: gx and the taps reuse the memory
        if _needs_grad(w):
            w._accumulate(np.ascontiguousarray(gw.reshape(o, kh, kw, c).transpose(0, 3, 1, 2)))
        if _needs_grad(b):
            b._accumulate(results[0])
        if _needs_grad(x):
            wt = np.ascontiguousarray(w.data.transpose(2, 3, 0, 1))
            gx = np.empty(x.shape, dtype=np.result_type(gmat, wt))
            run([
                functools.partial(_conv_input_grad, gmat[start * rows_per_view : stop * rows_per_view], wt,
                                  gx[start:stop], ho, wo, stride, padding)
                for start, stop in views
            ])
            x._accumulate(gx)

    return _make(out.reshape(n, ho, wo, o), (x, w, b), backward_fn, "conv2d")


def _relu_in_place(node: Tensor, op: str) -> Tensor:
    """``relu(node)`` as one node on ``node``'s parents that holds one array:
    the ReLU runs in place on ``node``'s fresh output, which no node has
    consumed, and the backward runs ``node``'s closure on the gradient
    masked where that output is positive, as a separate ReLU node masks where its input is."""
    out_data = np.maximum(node.data, 0, out=node.data)
    node_backward = node._backward_fn

    def backward_fn(g):
        node_backward(g * (out_data > 0))

    return _make(out_data, node._parents, backward_fn, op)


def conv2d_relu(x: Tensor, w: Tensor, b: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """``relu(conv2d(x, w, b))`` as one node that holds one array."""
    return _relu_in_place(conv2d(x, w, b, stride=stride, padding=padding), "conv2d_relu")


# -- small helpers used by model code -------------------------------------------


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b over the last axis, as one node that holds one array: the
    bias ``[k]`` is added in place to the matmul's fresh output."""
    if b.data.shape != w.data.shape[-1:]:
        raise DimensionError(f"affine bias must have shape {w.data.shape[-1:]}, got {b.data.shape}")
    product = matmul(x, w)
    product.data += b.data
    matmul_backward = product._backward_fn

    def backward_fn(g):
        if _needs_grad(b):
            b._accumulate(_unbroadcast(g, b.shape))
        if matmul_backward is not None:  # None when only b needs a gradient
            matmul_backward(g)

    return _make(product.data, (x, w, b), backward_fn, "affine")


def affine_relu(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``relu(affine(x, w, b))`` as one node that holds one array."""
    return _relu_in_place(affine(x, w, b), "affine_relu")
