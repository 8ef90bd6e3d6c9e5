"""Dense float64 tensor math with reverse- and forward-mode derivatives.

Networks and solvers import the dispatching functions below and work on
either :class:`Tensor` (reverse mode) or :class:`DualBatch` (forward
tangents riding on the reverse tape) without caring which one they got.
"""

from . import dual as _dual
from . import tape as _tape
from .dual import DualBatch, jacobian_fwd
from .lstsq import RANK_RTOL, SingularSystemError, qr_lstsq
from .tape import (
    DiffmathError,
    NonFiniteError,
    Tensor,
    as_tensor,
    backward,
    constant,
    grad,
    no_grad,
    parameter,
    stop_gradient,
)

__all__ = [
    "Tensor",
    "DualBatch",
    "DiffmathError",
    "NonFiniteError",
    "SingularSystemError",
    "RANK_RTOL",
    "as_tensor",
    "constant",
    "parameter",
    "backward",
    "grad",
    "no_grad",
    "stop_gradient",
    "jacobian_fwd",
    "qr_lstsq",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "pow_const",
    "exp",
    "sqrt",
    "sin",
    "cos",
    "sigmoid",
    "softplus",
    "maximum",
    "minimum",
    "matmul",
    "sum_",
    "mean_",
    "reshape",
    "transpose",
    "concat",
    "broadcast_to",
    "sine_affine",
    "sin_shift",
    "take_rows",
    "take_along",
    "slice_",
    "pad_zero",
    "norm2",
]


def _dispatch(tape_fn, dual_fn):
    def op(x, *args, **kwargs):
        if isinstance(x, DualBatch):
            return dual_fn(x, *args, **kwargs)
        return tape_fn(x, *args, **kwargs)

    op.__name__ = tape_fn.__name__
    op.__doc__ = tape_fn.__doc__
    return op


def _dual_aware_binary(tape_fn, dual_fn):
    def op(a, b, *args, **kwargs):
        if isinstance(a, DualBatch) or isinstance(b, DualBatch):
            return dual_fn(a, b, *args, **kwargs)
        return tape_fn(a, b, *args, **kwargs)

    op.__name__ = tape_fn.__name__
    op.__doc__ = tape_fn.__doc__
    return op


add = _dual_aware_binary(_tape.add, _dual.dual_add)
mul = _dual_aware_binary(_tape.mul, _dual.dual_mul)
matmul = _dual_aware_binary(_tape.matmul, _dual.dual_matmul)
sin = _dispatch(_tape.sin, _dual.dual_sin)
reshape = _dispatch(_tape.reshape, _dual.dual_reshape)


def concat(parts, axis: int = -1):
    if any(isinstance(p, DualBatch) for p in parts):
        return _dual.dual_concat(parts, axis)
    return _tape.concat(parts, axis)


# reverse-mode only
sub = _tape.sub
div = _tape.div
neg = _tape.neg
pow_const = _tape.pow_const
exp = _tape.exp
sqrt = _tape.sqrt
cos = _tape.cos
sigmoid = _tape.sigmoid
softplus = _tape.softplus
maximum = _tape.maximum
minimum = _tape.minimum
sum_ = _tape.sum_
mean_ = _tape.mean_
transpose = _tape.transpose
broadcast_to = _tape.broadcast_to
sine_affine = _tape.sine_affine
sin_shift = _tape.sin_shift
take_rows = _tape.take_rows
take_along = _tape.take_along
slice_ = _tape.slice_
pad_zero = _tape.pad_zero


def norm2(x, axis=-1):
    """Euclidean norm along ``axis`` (composed; not differentiable at 0)."""
    return sqrt(sum_(mul(x, x), axis=axis))
