"""Dense float64 tensor math with reverse-mode derivatives.

Networks and solvers call the operations as ``dm.<op>``: the functions
of :mod:`~pderom.diffmath.tape`, re-exported as they are, plus the
composed :func:`norm2`.  :class:`DualBatch` is the value-plus-tangents
pair that :func:`pderom.networks.decode` takes and returns for code
Jacobians.
"""

from .dual import DualBatch
from .lstsq import RANK_RTOL, SingularSystemError, qr_lstsq
from .tape import (
    DiffmathError,
    NonFiniteError,
    Tensor,
    add,
    as_tensor,
    backward,
    concat,
    constant,
    cos,
    div,
    exp,
    matmul,
    maximum,
    mean_,
    minimum,
    mul,
    no_grad,
    pad_zero,
    pow_const,
    reshape,
    sigmoid,
    sin,
    sin_shift,
    sine_affine,
    slice_,
    softplus,
    sqrt,
    stop_gradient,
    sub,
    sum_,
    take_along,
    take_rows,
    transpose,
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
    "backward",
    "no_grad",
    "stop_gradient",
    "qr_lstsq",
    "add",
    "sub",
    "mul",
    "div",
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
    "sine_affine",
    "sin_shift",
    "take_rows",
    "take_along",
    "slice_",
    "pad_zero",
    "norm2",
]


def norm2(x, axis=-1):
    """Euclidean norm along ``axis`` (composed; not differentiable at 0)."""
    return sqrt(sum_(mul(x, x), axis=axis))
