"""Differentiable least squares via QR factorization.

Solves ``min_x ||J x - b||_2`` for full-column-rank ``J`` by factoring
``J = Q R`` and back-substituting ``R x = Q^T b``.  The operation is a
single tape primitive with a hand-derived adjoint:

    z    = R^{-1} R^{-T} g          (g: cotangent of x)
    b_   = J z
    J_   = -b_ x^T + r z^T          (r = b - J x)

which follows from differentiating the normal equations at a full-rank
solution.  Leading batch dimensions are supported on both arguments.
"""

from __future__ import annotations

import numpy as np

from .tape import DiffmathError, Tensor, _make, as_tensor

__all__ = ["qr_lstsq", "SingularSystemError", "RANK_RTOL"]

RANK_RTOL = 1e-10  # |R_ii| below this times the system's max|R| flags rank deficiency


class SingularSystemError(DiffmathError):
    """The least-squares matrix is numerically rank deficient.

    ``index`` holds the leading (batch) indices of the offending system,
    empty for an unbatched one; ``column`` the dependent column.
    """

    def __init__(self, index: tuple, column: int, pivot: float, threshold: float):
        where = f" at batch position {', '.join(map(str, index))}" if index else ""
        super().__init__(
            f"rank-deficient least-squares system{where}: |R[{column},{column}]| = "
            f"{pivot:.3e} <= {threshold:.3e}; column {column} is linearly "
            "dependent on the others"
        )
        self.index = index
        self.column = column


def solve_upper(R: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Back-substitution for upper-triangular ``R`` (batched, k small)."""
    k = R.shape[-1]
    x = np.zeros_like(y)
    for i in range(k - 1, -1, -1):
        acc = y[..., i]
        if i < k - 1:
            acc = acc - np.einsum("...j,...j->...", R[..., i, i + 1 :], x[..., i + 1 :])
        x[..., i] = acc / R[..., i, i]
    return x


def solve_upper_t(R: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Forward substitution for ``R^T t = y`` with ``R`` upper triangular."""
    k = R.shape[-1]
    t = np.zeros_like(y)
    for i in range(k):
        acc = y[..., i]
        if i > 0:
            acc = acc - np.einsum("...j,...j->...", R[..., :i, i], t[..., :i])
        t[..., i] = acc / R[..., i, i]
    return t


def _check_rank(R: np.ndarray) -> None:
    """Raise for the first system whose |R_ii| falls to its own threshold.

    Each system in the batch is measured against its own max|R|, so a
    full-rank system is never rejected because of its batch neighbours.
    """
    diag = np.abs(np.diagonal(R, axis1=-2, axis2=-1))
    threshold = RANK_RTOL * np.abs(R).max(axis=(-2, -1))
    bad = diag <= threshold[..., None]
    if bad.any():
        first = tuple(int(i) for i in np.argwhere(bad)[0])
        index, col = first[:-1], first[-1]
        raise SingularSystemError(index, col, float(diag[first]), float(threshold[index]))


def qr_lstsq(J, b) -> Tensor:
    """Least-squares solution of ``J x = b``; differentiable in ``J`` and ``b``.

    ``J`` has shape ``(..., n, k)`` with ``n >= k`` and full column rank;
    ``b`` has shape ``(..., n)``.  Returns ``x`` of shape ``(..., k)``.
    """
    J, b = as_tensor(J), as_tensor(b)
    Jd, bd = J.data, b.data
    if Jd.ndim < 2:
        raise ValueError("J must have shape (..., n, k)")
    n, k = Jd.shape[-2], Jd.shape[-1]
    if n < k:
        raise ValueError(f"system must be square or overdetermined; n={n} < k={k}")
    if bd.shape != Jd.shape[:-1]:
        raise ValueError(f"b shape {bd.shape} does not match J rows {Jd.shape[:-1]}")

    Q, R = np.linalg.qr(Jd)  # reduced: Q (..., n, k), R (..., k, k)
    _check_rank(R)
    c = np.einsum("...nk,...n->...k", Q, bd)
    x = solve_upper(R, c)

    def vjp(g):
        z = solve_upper(R, solve_upper_t(R, g))
        gb = np.einsum("...nk,...k->...n", Jd, z)
        r = bd - np.einsum("...nk,...k->...n", Jd, x)
        gJ = -gb[..., :, None] * x[..., None, :] + r[..., :, None] * z[..., None, :]
        return gJ, gb

    return _make(x, (J, b), vjp, "qr_lstsq")
