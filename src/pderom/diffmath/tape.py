"""Reverse-mode automatic differentiation over dense float64 arrays.

The graph is built define-by-run: every operation returns a new
:class:`Tensor` holding the result plus a closure that maps the output
cotangent to cotangents of its parents.  There is no global tape object,
so graphs built on different threads never share state.

The primitive set is fixed.  Networks and solvers elsewhere in the
package must compose only from the operations defined in this module
(plus the least-squares primitive in :mod:`pderom.diffmath.lstsq`),
each called by its function name; :class:`Tensor` defines no arithmetic
operators:

==============================  =============================================
add, sub, mul, div              elementwise with numpy broadcasting
pow_const                       x**p for a constant scalar exponent
exp, sqrt, sin, cos             elementwise transcendentals
sigmoid, softplus               numerically stable forms
maximum, minimum                elementwise extrema (ties route to the
                                first argument)
matmul                          last-two-axes contraction, operands ndim >= 2
sum_, mean_                     reductions over given axes
reshape, transpose              shape manipulation
concat                          concatenation along an axis
take_rows                       fancy indexing along axis 0
take_along                      per-row gather (np.take_along_axis, last axis
                                of the index array addresses ``axis``)
slice_, pad_zero                basic slicing and zero padding (stencils)
sine_affine                     fused sine layer sin(scale * (z @ W + b))
sin_shift                       sin(p + q) from sin p, cos p and q by angle
                                addition (no transcendental at broadcast
                                size)
stop_gradient                   identity value, zero derivative
==============================  =============================================

The decoders take the sine and the cosine of the same tensor, and the
adjoint of each is the other (negated for ``cos``).  So when ``sin(a)``
or ``cos(a)`` records an adjoint it keeps its value on ``a`` (see
:class:`Tensor`), and the adjoint of the other reads it there instead
of evaluating a transcendental again.  The gradients are bitwise those
of evaluating it again.

All data is float64.  Every primitive checks its output for
non-finite values and raises :class:`NonFiniteError` naming the
operation, so a NaN produced deep inside a training step surfaces at
the exact node that created it.

The passes that dominate a sine-activated decoder run on every CPU the
process may use: the sines and cosines of :func:`sin` and :func:`cos`
(their fallback adjoints too), the bias, scale and sine of
:func:`sine_affine` and the cosine, cotangent and scale of its adjoint,
and the row-stable products of :func:`matmul` with one weight matrix.
A large enough pass is cut into contiguous chunks of elements or rows;
the calling thread computes the first and a thread pool, made on first
use with one thread per other CPU, the rest.  numpy releases the
interpreter lock inside these loops, so the chunks run at once.  Each
element, or each row of a row-stable product, goes through the same
numpy kernel on the same inputs as in one unsplit call, so the results
are bitwise those of the serial code, whatever the chunk count.  A BLAS
gemm is never split: its bits depend on its blocking over the rows.  On
one CPU nothing is split, and no pool or thread is made.

:func:`sin_shift` runs in one pass.  Its operands broadcast against one
another, so a split has to cut each operand along its own axes, and
its two products and a sum cost only about a quarter of a sine per
element.  On a 2-vCPU VM with one BLAS thread the split saved about 3 %
of diffusion-siren-sparse training and forecasting and nothing that
showed on burgers-siren (medians of 6 alternated runs in one process),
although on its own, at burgers-siren's training shape (32, 256, 64),
it took 1.3 ms against 1.9 ms in one pass.
"""

from __future__ import annotations

import contextvars
import os
import threading
from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "DiffmathError",
    "NonFiniteError",
    "no_grad",
    "as_tensor",
    "constant",
    "backward",
    "stop_gradient",
]


class DiffmathError(Exception):
    """Base class for differentiation errors."""


class NonFiniteError(DiffmathError):
    """A primitive produced a NaN or infinity."""

    def __init__(self, op: str):
        super().__init__(f"non-finite value produced by operation '{op}'")
        self.op = op


_state = threading.local()


def _grad_on() -> bool:
    return getattr(_state, "grad", True)


@contextmanager
def no_grad():
    """Disable graph construction inside the context (pure evaluation)."""
    prev = _grad_on()
    _state.grad = False
    try:
        yield
    finally:
        _state.grad = prev


class Tensor:
    """A float64 array plus its position in the reverse-mode graph.

    ``parents``/``vjp`` are populated only when gradients are enabled and
    at least one input requires them; constants stay out of the graph.
    Tensors are immutable by convention: no operation writes to ``data``
    of an existing tensor.

    ``trig`` maps ``"sin"``/``"cos"`` to the values :func:`sin` and
    :func:`cos` computed from this tensor, for the adjoint of the other
    one.  It is filled only when the op records an adjoint (gradients on
    and this tensor requires them), so ``no_grad`` keeps nothing.  A kept
    value is never stale, because ``data`` is never written.  It is the
    op's own output, so keeping it costs no computation, and usually no
    memory: the tape holds that output too.  The exception is an output
    that nothing on the way to the loss reads, such as the value of a
    dual decode whose caller keeps only the tangents.  The kept value
    then lives as long as this tensor, in place of being computed again
    in the other function's adjoint.  Each store writes a new map, so
    graphs on other threads that share this tensor never see one half
    written; their values are the same.
    """

    __slots__ = ("data", "parents", "vjp", "op", "requires_grad", "trig")

    def __init__(
        self,
        data,
        parents: tuple = (),
        vjp: Callable | None = None,
        op: str = "leaf",
        requires_grad: bool = False,
    ):
        self.data = np.asarray(data, dtype=np.float64)
        self.parents = parents
        self.vjp = vjp
        self.op = op
        self.requires_grad = requires_grad or bool(parents)
        self.trig = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self.op!r})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def constant(x) -> Tensor:
    """A tensor that never receives gradients."""
    return Tensor(x)


def _check_finite(data: np.ndarray, op: str) -> None:
    if not np.isfinite(data).all():
        raise NonFiniteError(op)


def _make(data, parents, vjp, op) -> Tensor:
    _check_finite(data, op)
    if _grad_on() and any(p.requires_grad for p in parents):
        return Tensor(data, parents=parents, vjp=vjp, op=op)
    return Tensor(data, op=op)


# ----------------------------------------------------------------------
# splitting one numpy pass across cores

# Least work per chunk, in float64 sine evaluations (9-20 ns each, the
# more the larger the argument).  Handing a chunk to a pool thread costs
# about 26 us back to back, and more once that thread's CPU has idled.
# np.sin of uniform(-3, 3), serial -> two-way, one BLAS thread, 2-core VM:
# 4096 elements 27.7 -> 46.1 us, 6144 53.4 -> 54.6 us, 8192 74.5 ->
# 69.4 us, 11264 120 -> 77 us, 16384 189 -> 123 us, 65536 826 -> 470 us.
# So two parts start at 8192 sines.  That splits the per-step layers of
# the siren inversions, (256, 64) on burgers-siren and (176, 64) on
# diffusion-siren-sparse: their 1000-step inversions took 1.85 and 1.44 s
# against 1.96 and 1.56 s with a 16384 minimum (medians of 6, alternated).
_MIN_CHUNK = 4096

_pool = None  # the ThreadPoolExecutor, made on first split
_pool_lock = threading.Lock()
_cores = None  # CPUs this process may run on, read on first use


def _cpu_count() -> int:
    global _cores
    if _cores is None:
        _cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
            else os.cpu_count() or 1
    return _cores


def _parts(work: int) -> int:
    """How many chunks a pass of ``work`` sine-equivalents is split into."""
    return min(_cpu_count(), work // _MIN_CHUNK)


def _executor():
    global _pool
    with _pool_lock:
        if _pool is None:
            # imported here, where it is needed: about 0.8 ms of set-up otherwise
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(max(_cpu_count() - 1, 1),
                                       thread_name_prefix="pderom-split")
        return _pool


def _forget_pool() -> None:
    """In a forked child: its parent's pool threads do not exist there."""
    global _pool, _pool_lock, _cores
    _pool, _pool_lock, _cores = None, threading.Lock(), None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _split(kernel: Callable[[int, int], None], n: int, work: int) -> None:
    """Run ``kernel(lo, hi)`` over ``[0, n)`` in contiguous chunks.

    ``work`` is the serial pass's cost in float64 sine evaluations; it
    sets the chunk count (:func:`_parts`, at most one per CPU).  The
    calling thread runs the first chunk and a pool thread each other
    one, in a copy of the caller's context, so ``np.errstate`` holds
    there too.  A kernel runs numpy loops on its own rows only: no tape
    op, and no split of its own, so a chunk never waits for another.
    It writes into arrays the caller made and allocates none, which
    would stay in the pool thread's malloc arena.  Every chunk has
    finished when this returns or raises.
    """
    parts = min(_parts(work), n)
    if parts < 2:
        kernel(0, n)
        return
    bounds = [n * i // parts for i in range(parts + 1)]
    pool = _pool or _executor()
    futures = [pool.submit(contextvars.copy_context().run, kernel, lo, hi)
               for lo, hi in zip(bounds[1:-1], bounds[2:])]
    try:
        kernel(0, bounds[1])
    finally:
        errors = [f.exception() for f in futures]
    for exc in errors:
        if exc is not None:
            raise exc


def _trig(fn, x: np.ndarray) -> np.ndarray:
    """``fn(x)`` for ``np.sin`` or ``np.cos``, split when ``x`` is large
    and C-contiguous (the tape's own outputs are)."""
    if _parts(x.size) < 2 or not x.flags.c_contiguous:
        return fn(x)
    out = np.empty_like(x)
    xs, outs = x.reshape(-1), out.reshape(-1)
    _split(lambda lo, hi: fn(xs[lo:hi], out=outs[lo:hi]), x.size, x.size)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a cotangent down to the shape of the operand it belongs to."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    keep = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if keep:
        g = g.sum(axis=keep, keepdims=True)
    return g


# ----------------------------------------------------------------------
# elementwise primitives


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data
    na, nb = a.requires_grad, b.requires_grad

    def vjp(g):
        return (
            _unbroadcast(g, a.data.shape) if na else None,
            _unbroadcast(g, b.data.shape) if nb else None,
        )

    return _make(out, (a, b), vjp, "add")


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data - b.data
    na, nb = a.requires_grad, b.requires_grad

    def vjp(g):
        return (
            _unbroadcast(g, a.data.shape) if na else None,
            -_unbroadcast(g, b.data.shape) if nb else None,
        )

    return _make(out, (a, b), vjp, "sub")


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data
    na, nb = a.requires_grad, b.requires_grad

    def vjp(g):
        return (
            _unbroadcast(g * b.data, a.data.shape) if na else None,
            _unbroadcast(g * a.data, b.data.shape) if nb else None,
        )

    return _make(out, (a, b), vjp, "mul")


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = a.data / b.data
    na, nb = a.requires_grad, b.requires_grad

    def vjp(g):
        ga = g / b.data
        return (
            _unbroadcast(ga, a.data.shape) if na else None,
            _unbroadcast(-ga * out, b.data.shape) if nb else None,
        )

    return _make(out, (a, b), vjp, "div")


def pow_const(a, p) -> Tensor:
    a = as_tensor(a)
    p = float(p)
    out = a.data**p

    def vjp(g):
        return (g * (p * a.data ** (p - 1.0)),)

    return _make(out, (a,), vjp, "pow")


def exp(a) -> Tensor:
    a = as_tensor(a)
    out = np.exp(a.data)
    return _make(out, (a,), lambda g: (g * out,), "exp")


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    with np.errstate(invalid="ignore"):
        out = np.sqrt(a.data)
    return _make(out, (a,), lambda g: (g * (0.5 / out),), "sqrt")


def _keep_trig(t: Tensor, a: Tensor, name: str) -> Tensor:
    """Keep ``t``'s value as ``a``'s ``name`` if ``t`` is on the tape."""
    if t.vjp is not None:
        a.trig = {**(a.trig or {}), name: t.data}
    return t


def sin(a) -> Tensor:
    a = as_tensor(a)
    out = _trig(np.sin, a.data)

    def vjp(g):
        c = (a.trig or {}).get("cos")
        return (g * (_trig(np.cos, a.data) if c is None else c),)

    return _keep_trig(_make(out, (a,), vjp, "sin"), a, "sin")


def cos(a) -> Tensor:
    a = as_tensor(a)
    out = _trig(np.cos, a.data)

    def vjp(g):
        s = (a.trig or {}).get("sin")
        return (g * -(_trig(np.sin, a.data) if s is None else s),)

    return _keep_trig(_make(out, (a,), vjp, "cos"), a, "cos")


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    x = a.data
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)

    def vjp(g):
        return (g * (out * (1.0 - out)),)

    return _make(out, (a,), vjp, "sigmoid")


def softplus(a) -> Tensor:
    a = as_tensor(a)
    out = np.logaddexp(0.0, a.data)

    def vjp(g):
        s = 1.0 / (1.0 + np.exp(-np.clip(a.data, -500, 500)))
        return (g * s,)

    return _make(out, (a,), vjp, "softplus")


def _extremum(a, b, pick, takes_a, op: str) -> Tensor:
    """``pick(a, b)`` elementwise; the gradient goes to ``a`` where
    ``takes_a(a, b)`` holds (ties included) and to ``b`` elsewhere."""
    a, b = as_tensor(a), as_tensor(b)
    out = pick(a.data, b.data)
    na, nb = a.requires_grad, b.requires_grad

    def vjp(g):
        take_a = takes_a(a.data, b.data)
        return (
            _unbroadcast(np.where(take_a, g, 0.0), a.data.shape) if na else None,
            _unbroadcast(np.where(take_a, 0.0, g), b.data.shape) if nb else None,
        )

    return _make(out, (a, b), vjp, op)


def maximum(a, b) -> Tensor:
    return _extremum(a, b, np.maximum, np.greater_equal, "maximum")


def minimum(a, b) -> Tensor:
    return _extremum(a, b, np.minimum, np.less_equal, "minimum")


# ----------------------------------------------------------------------
# linear algebra / shape primitives


def _rowwise_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` as one (1, K) x (K, N) product per output row.

    ``np.matmul`` is a generalized ufunc: with a unit axis inserted, each
    row of ``a`` is its own core, a BLAS matrix-vector product computed
    from that row and ``b`` alone.  Its bits therefore never depend on
    the neighbouring rows, the row's position or the row count.  Both
    operands are made C-contiguous first because the kernel numpy picks
    depends on the strides.
    """
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    if a.ndim < 2 or b.ndim != 2:
        return np.matmul(a[..., None, :], b[..., None, :, :])[..., 0, :]
    # one weight matrix: split the rows, each core keeping its strides
    rows = a.reshape(-1, a.shape[-1])
    out = np.empty((len(rows), 1, b.shape[-1]))

    def kernel(lo, hi):
        np.matmul(rows[lo:hi, None, :], b, out=out[lo:hi])

    # a row-vector product at width 64 costs about 5 ns per output element
    _split(kernel, len(rows), out.size // 2)
    return out.reshape(*a.shape[:-1], b.shape[-1])


def matmul(a, b, row_stable: bool = False) -> Tensor:
    """Contract the last two axes; numpy matmul broadcasting on the rest.

    A BLAS gemm blocks over rows, so an output row's last bit can depend
    on its position and on the total row count (a single row even goes
    to gemv instead).  With ``row_stable=True`` the forward pass computes
    each output row as its own matrix-vector product, see
    :func:`_rowwise_matmul`, which makes row values independent of
    slicing, permutation, and batch size.  On one core that costs
    1.2-2.1x a gemm at width 64 (1.2x at (31752, 64) x (64, 64), 2.1x at
    (1764, 64) x (64, 64)) and up to 9x on tiny products such as
    (1764, 2) x (2, 32), where the per-row call dominates.  With a 2-D
    ``b`` and enough rows the row products are split across the CPUs,
    which a gemm is not: on a 2-core VM with one BLAS thread, 1024 rows
    of (64, 64) took 438 us serial and 249 us split, against 175 us for
    one gemm.  Exact decoding uses it (each siren layer, the hyper map's
    product per (code, point) pair); hot loops keep the default.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul operands must have ndim >= 2; reshape vectors first")
    out = _rowwise_matmul(a.data, b.data) if row_stable else a.data @ b.data
    na, nb = a.requires_grad, b.requires_grad

    def vjp(g):
        ga = gb = None
        if na:
            ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape)
        if nb:
            if a.ndim > 2 and b.ndim == 2:
                # collapse the batch once instead of summing stacked products
                rows = a.data.reshape(-1, a.data.shape[-1])
                gb = rows.T @ g.reshape(-1, g.shape[-1])
            else:
                gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape)
        return ga, gb

    return _make(out, (a, b), vjp, "matmul")


def sum_(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, a.data.shape),)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.data.shape),)

    return _make(out, (a,), vjp, "sum")


def mean_(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.data.size if axis is None else np.prod(
        [a.data.shape[ax] for ax in np.atleast_1d(axis)]
    )

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g / count, a.data.shape),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg / count, a.data.shape),)

    return _make(out, (a,), vjp, "mean")


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    out = a.data.reshape(shape)
    return _make(out, (a,), lambda g: (g.reshape(a.data.shape),), "reshape")


def transpose(a, axes=None) -> Tensor:
    a = as_tensor(a)
    out = np.transpose(a.data, axes)
    if axes is None:
        inv = None
    else:
        inv = tuple(np.argsort(axes))
    return _make(out, (a,), lambda g: (np.transpose(g, inv),), "transpose")


def concat(parts: Sequence, axis: int = -1) -> Tensor:
    ts = [as_tensor(p) for p in parts]
    out = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.data.shape[axis] for t in ts]
    splits = np.cumsum(sizes)[:-1]
    needs = [t.requires_grad for t in ts]

    def vjp(g):
        parts_g = np.split(g, splits, axis=axis)
        return tuple(p if need else None for p, need in zip(parts_g, needs))

    return _make(out, tuple(ts), vjp, "concat")


def _scatter_add(flat_idx: np.ndarray, g: np.ndarray, shape: tuple) -> np.ndarray:
    """Add each ``g`` element into the flat position ``flat_idx`` of a zero array.

    One ``np.bincount``, bitwise equal to ``np.add.at``: every bin sums
    its elements in index order, starting from +0.0.
    """
    total = np.bincount(flat_idx.ravel(), weights=g.ravel(), minlength=int(np.prod(shape)))
    return total.reshape(shape)


def take_rows(a, indices) -> Tensor:
    """Gather rows ``a[indices]`` along axis 0; adjoint scatter-adds."""
    a = as_tensor(a)
    idx = np.asarray(indices)
    out = a.data[idx]

    def vjp(g):
        row = int(np.prod(a.data.shape[1:]))
        rows = np.where(idx < 0, idx + a.data.shape[0], idx)
        flat = rows.reshape(-1, 1) * row + np.arange(row)
        return (_scatter_add(flat, g, a.data.shape),)

    return _make(out, (a,), vjp, "take_rows")


def take_along(a, indices, axis: int) -> Tensor:
    """np.take_along_axis with a scatter-add adjoint."""
    a = as_tensor(a)
    idx = np.asarray(indices)
    out = np.take_along_axis(a.data, idx, axis=axis)

    def vjp(g):
        ax = axis % a.data.ndim
        grids = list(np.ogrid[tuple(slice(s) for s in out.shape)])
        grids[ax] = np.where(idx < 0, idx + a.data.shape[ax], idx)
        flat = np.ravel_multi_index(tuple(np.broadcast_arrays(*grids)), a.data.shape)
        return (_scatter_add(flat, g, a.data.shape),)

    return _make(out, (a,), vjp, "take_along")


def slice_(a, key) -> Tensor:
    """Basic slicing ``a[key]`` (slices only, keeps rank)."""
    a = as_tensor(a)
    if not isinstance(key, tuple):
        key = (key,)
    if not all(isinstance(k, slice) for k in key):
        raise TypeError("slice_ supports slice objects only")
    out = a.data[key]

    def vjp(g):
        ga = np.zeros_like(a.data)
        ga[key] = g
        return (ga,)

    return _make(out, (a,), vjp, "slice")


def pad_zero(a, pad_width) -> Tensor:
    """Zero padding; ``pad_width`` follows np.pad conventions."""
    a = as_tensor(a)
    out = np.pad(a.data, pad_width)
    key = tuple(
        slice(lo, dim + lo) for (lo, _), dim in zip(pad_width, a.data.shape)
    )

    def vjp(g):
        return (g[key],)

    return _make(out, (a,), vjp, "pad_zero")


def sine_affine(z, W, b, scale: float, row_stable: bool = False) -> Tensor:
    """Fused sine layer ``sin(scale * (z @ W + b))``.

    Mathematically identical to composing matmul, add, mul, and sin;
    fused because this is the inner loop of sine-activated decoders and
    the composition would make four full-size temporaries per layer.
    ``z`` is (..., n, in) with plain 2-D ``W`` (in, out) and ``b`` (out,).
    ``row_stable=True`` computes ``z @ W`` one row at a time as in
    :func:`matmul`; the bias, scale and sine act elementwise, so each
    output row still depends on its own row of ``z`` alone.
    """
    z, W, b = as_tensor(z), as_tensor(W), as_tensor(b)
    if W.ndim != 2 or b.ndim != 1:
        raise ValueError("sine_affine expects 2-D W and 1-D b")
    pre = _rowwise_matmul(z.data, W.data) if row_stable else z.data @ W.data
    # the elementwise tail, split by rows; the gemm above stays whole
    pre = np.ascontiguousarray(pre)
    rows = pre.reshape(-1, pre.shape[-1])
    out = np.empty_like(pre)
    out_rows = out.reshape(rows.shape)

    def tail(lo, hi):
        p = rows[lo:hi]
        p += b.data
        p *= scale
        np.sin(p, out=out_rows[lo:hi])

    _split(tail, len(rows), rows.size)
    nz, nW, nb = z.requires_grad, W.requires_grad, b.requires_grad

    def vjp(g):
        dpre = np.empty_like(pre)
        d_rows, g_rows = dpre.reshape(rows.shape), np.reshape(g, rows.shape)

        def adjoint(lo, hi):
            d = d_rows[lo:hi]
            np.cos(rows[lo:hi], out=d)
            d *= g_rows[lo:hi]
            d *= scale

        _split(adjoint, len(rows), rows.size)
        gz = gW = gb = None
        if nz:
            gz = dpre @ W.data.T
        if nW:
            gW = z.data.reshape(-1, z.shape[-1]).T @ dpre.reshape(-1, dpre.shape[-1])
        if nb:
            gb = dpre.sum(axis=tuple(range(dpre.ndim - 1)))
        return gz, gW, gb

    return _make(out, (z, W, b), vjp, "sine_affine")


def sin_shift(s, c, q) -> Tensor:
    """``sin(p + q)`` from ``s = sin p``, ``c = cos p`` and a shift ``q``.

    Angle addition, ``s cos q + c sin q``, with numpy broadcasting
    between ``s``/``c`` (same shape) and ``q``.  Only ``q`` goes through
    a transcendental, so when ``p`` varies along one axis (grid points)
    and ``q`` along another (codes) no sine or cosine runs at the
    broadcast size.  The VJP uses ``cos(p + q) = c cos q - s sin q`` and
    reduces to ``q``'s shape before multiplying by ``cos q``/``sin q``;
    the tape keeps only the four operand-sized arrays.
    """
    s, c, q = as_tensor(s), as_tensor(c), as_tensor(q)
    if s.shape != c.shape:
        raise ValueError(f"sin_shift: sin p {s.shape} and cos p {c.shape} differ in shape")
    cq, sq = np.cos(q.data), np.sin(q.data)
    out = np.empty(np.broadcast_shapes(s.shape, q.shape))
    term = np.empty_like(out)
    np.multiply(s.data, cq, out=out)
    out += np.multiply(c.data, sq, out=term)
    ns, nc, nq = s.requires_grad, c.requires_grad, q.requires_grad

    def vjp(g):
        gq = None
        if nq:
            gq = _unbroadcast(g * c.data, q.data.shape) * cq
            gq -= _unbroadcast(g * s.data, q.data.shape) * sq
        return (
            _unbroadcast(g * cq, s.data.shape) if ns else None,
            _unbroadcast(g * sq, c.data.shape) if nc else None,
            gq,
        )

    return _make(out, (s, c, q), vjp, "sin_shift")


def stop_gradient(a) -> Tensor:
    """Identical values, zero contribution to any gradient."""
    a = as_tensor(a)
    return Tensor(a.data, op="stop_gradient")


# ----------------------------------------------------------------------
# backward pass


def _topo(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    return order


def backward(root: Tensor, wrt: Iterable[Tensor]) -> list[np.ndarray]:
    """Cotangents of a scalar ``root`` with respect to each tensor in ``wrt``.

    Tensors not reached by the graph get zero gradients.  Accumulation
    order is the reverse of construction order, so repeated runs over an
    identical graph are bitwise reproducible.
    """
    if root.data.shape != ():
        raise ValueError("backward expects a scalar root tensor")
    wrt = list(wrt)
    if not root.requires_grad:
        return [np.zeros_like(t.data) for t in wrt]

    order = _topo(root)
    # cotangent store: id -> [array, owned]; owned means we may add in place
    store: dict[int, list] = {id(root): [np.ones((), dtype=np.float64), True]}
    for node in reversed(order):
        if node.vjp is None:
            continue  # leaf: its accumulated cotangent stays in the store
        entry = store.pop(id(node), None)
        if entry is None:
            continue
        cot = node.vjp(entry[0])
        for p, c in zip(node.parents, cot):
            if not p.requires_grad or c is None:
                continue
            slot = store.get(id(p))
            if slot is None:
                store[id(p)] = [c, False]
            elif slot[1]:
                np.add(slot[0], c, out=slot[0])
            else:
                # asarray: two 0-d cotangents add up to a numpy scalar,
                # which cannot be the ``out`` of the next in-place add
                slot[0] = np.asarray(slot[0] + c)
                slot[1] = True
    out = []
    for t in wrt:
        slot = store.get(id(t))
        out.append(slot[0] if slot is not None else np.zeros_like(t.data))
    return out
