"""Shared oracles for the test suite.

These deliberately avoid the library's differentiation machinery: the
finite-difference gradient checker calls the function under test as a
black box, and the reference solutions are closed-form or brute-force.
"""

from __future__ import annotations

import numpy as np

from pderom import diffmath as dm


def fd_gradient(f, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        fp = f(x)
        flat[i] = orig - step
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * step)
    return g


def fd_check_params(loss_fn, params: dict, step: float = 1e-5):
    """Compare reverse-mode gradients of ``loss_fn(params)`` to central FD.

    ``loss_fn`` takes a dict of Tensors and returns a scalar Tensor.
    Returns the maximum relative error over all parameter entries, where
    the relative scale is floored at 1e-6 times the largest gradient
    magnitude of that parameter (so near-zero entries do not blow up the
    ratio).
    """
    _, grads = dm.grad(loss_fn, params)
    worst = 0.0
    for name, p in params.items():
        base = np.asarray(p.data if isinstance(p, dm.Tensor) else p, dtype=np.float64)

        def scalar_of(x, _name=name):
            trial = {
                k: dm.constant(x if k == _name else np.asarray(
                    v.data if isinstance(v, dm.Tensor) else v))
                for k, v in params.items()
            }
            out = loss_fn(trial)
            return float(out.data)

        g_fd = fd_gradient(scalar_of, base.copy(), step)
        g_ad = grads[name].data
        floor = max(1e-6 * np.abs(g_fd).max(), 1e-12)
        rel = np.abs(g_ad - g_fd) / np.maximum(np.abs(g_fd), floor)
        worst = max(worst, float(rel.max()))
    return worst


def normal_equations_lstsq(J: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Independent least-squares oracle: x = (J^T J)^{-1} J^T b."""
    return np.linalg.solve(J.T @ J, J.T @ b)


def expm(A: np.ndarray) -> np.ndarray:
    """Matrix exponential: a 30-term Taylor series, scaled and squared."""
    norm = np.abs(A).sum(axis=1).max()
    squarings = max(0, int(np.ceil(np.log2(norm / 0.25)))) if norm > 0 else 0
    A = A / 2.0**squarings
    out = term = np.eye(len(A))
    for j in range(1, 30):
        term = term @ A / j
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def heat_kernel_2d(xy: np.ndarray, t: float, sigma: float, amp: float,
                   center=(0.0, 0.0), kappa: float = 2.0) -> np.ndarray:
    """Free-space solution for a Gaussian blob under 2-D diffusion.

    An isotropic Gaussian of variance sigma^2 evolves to variance
    sigma^2 + 2*kappa*t per axis with amplitude scaled by
    sigma^2 / (sigma^2 + 2*kappa*t).
    """
    s2 = sigma**2 + 2.0 * kappa * t
    r2 = (xy[:, 0] - center[0]) ** 2 + (xy[:, 1] - center[1]) ** 2
    return amp * (sigma**2 / s2) * np.exp(-r2 / (2.0 * s2))
