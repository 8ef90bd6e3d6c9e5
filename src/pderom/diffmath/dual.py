"""Forward-mode differentiation with batched tangents.

A :class:`DualBatch` carries a value tensor together with ``k`` tangent
tensors stacked along a leading axis, one per latent dimension.  The
tangent arithmetic is expressed through the reverse-mode primitives of
:mod:`pderom.diffmath.tape`, so a Jacobian assembled in forward mode
remains differentiable in reverse mode (forward-over-reverse).  This is
what lets the training loss differentiate through the decoder Jacobian.

Only the operations the decoders are built from carry dual rules; an
unsupported call fails loudly rather than silently dropping tangents.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tape
from .tape import Tensor, as_tensor, constant

__all__ = ["DualBatch", "jacobian_fwd"]


@dataclass
class DualBatch:
    """Value plus ``k`` stacked tangents of identical shape."""

    value: Tensor
    tangent: Tensor  # shape (k, *value.shape)

    def __post_init__(self):
        if self.tangent.ndim != self.value.ndim + 1:
            raise ValueError("tangent must stack k copies of the value shape")
        if self.tangent.shape[1:] != self.value.shape:
            raise ValueError(
                f"tangent shape {self.tangent.shape} does not stack value "
                f"shape {self.value.shape}"
            )
        if self.tangent.shape[0] < 1:
            raise ValueError("need at least one tangent")

    @property
    def num_tangents(self) -> int:
        return self.tangent.shape[0]


def _is_dual(x) -> bool:
    return isinstance(x, DualBatch)


def _fit(tangent: Tensor, value: Tensor, k: int) -> Tensor:
    """Broadcast a tangent stack up to (k, *value.shape) after value broadcasting."""
    want = (k, *value.shape)
    if tangent.shape == want:
        return tangent
    return tape.broadcast_to(tangent, want)


def dual_add(a, b) -> DualBatch:
    if _is_dual(a) and _is_dual(b):
        v = a.value + b.value
        return DualBatch(v, _fit(a.tangent + b.tangent, v, a.num_tangents))
    if _is_dual(a):
        v = a.value + as_tensor(b)
        return DualBatch(v, _fit(a.tangent, v, a.num_tangents))
    v = as_tensor(a) + b.value
    return DualBatch(v, _fit(b.tangent, v, b.num_tangents))


def dual_mul(a, b) -> DualBatch:
    if _is_dual(a) and _is_dual(b):
        v = a.value * b.value
        t = a.tangent * b.value + a.value * b.tangent
        return DualBatch(v, _fit(t, v, a.num_tangents))
    if _is_dual(a):
        b = as_tensor(b)
        v = a.value * b
        return DualBatch(v, _fit(a.tangent * b, v, a.num_tangents))
    a = as_tensor(a)
    v = a * b.value
    return DualBatch(v, _fit(a * b.tangent, v, b.num_tangents))


def dual_matmul(a, b, row_stable: bool = False) -> DualBatch:
    if _is_dual(a) and _is_dual(b):
        return DualBatch(
            tape.matmul(a.value, b.value, row_stable),
            tape.matmul(a.tangent, b.value, row_stable)
            + tape.matmul(a.value, b.tangent, row_stable),
        )
    if _is_dual(a):
        b = as_tensor(b)
        return DualBatch(
            tape.matmul(a.value, b, row_stable), tape.matmul(a.tangent, b, row_stable)
        )
    a = as_tensor(a)
    return DualBatch(
        tape.matmul(a, b.value, row_stable), tape.matmul(a, b.tangent, row_stable)
    )


def dual_sin(a: DualBatch) -> DualBatch:
    return DualBatch(tape.sin(a.value), tape.cos(a.value) * a.tangent)


def dual_reshape(a: DualBatch, shape) -> DualBatch:
    k = a.num_tangents
    return DualBatch(
        tape.reshape(a.value, shape),
        tape.reshape(a.tangent, (k, *shape)),
    )


def dual_concat(parts, axis: int = -1) -> DualBatch:
    """Concatenate duals and plain tensors; plain parts get zero tangents."""
    duals = [p for p in parts if _is_dual(p)]
    if not duals:
        raise TypeError("dual_concat needs at least one DualBatch")
    k = duals[0].num_tangents
    vparts, tparts = [], []
    for p in parts:
        if _is_dual(p):
            vparts.append(p.value)
            tparts.append(p.tangent)
        else:
            t = as_tensor(p)
            vparts.append(t)
            tparts.append(constant(np.zeros((k, *t.shape))))
    ax = axis if axis < 0 else axis - vparts[0].ndim  # align for the k axis
    return DualBatch(tape.concat(vparts, ax), tape.concat(tparts, ax))


def jacobian_fwd(fn, alpha) -> Tensor:
    """Jacobian of ``fn: R^k -> R^n`` at ``alpha`` via batched tangents.

    Column ``j`` is the directional derivative of ``fn`` along the unit
    vector ``e_j``.  The result is a tape tensor: entries remain
    differentiable in reverse mode with respect to anything ``fn``
    closes over (decoder parameters, the latent code itself).
    """
    a = as_tensor(alpha)
    if a.ndim != 1:
        raise ValueError("jacobian_fwd expects a rank-1 latent code")
    k = a.shape[0]
    out = fn(DualBatch(a, constant(np.eye(k))))
    if not isinstance(out, DualBatch):
        raise TypeError("fn must propagate DualBatch inputs")
    n = int(np.prod(out.value.shape))
    if n < k:
        raise ValueError(f"jacobian_fwd needs n >= k, got n={n} < k={k}")
    return tape.transpose(tape.reshape(out.tangent, (k, n)))

