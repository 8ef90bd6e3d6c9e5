"""Shared oracles for the test suite.

These deliberately avoid the library's differentiation machinery: the
finite-difference gradient checker calls the function under test as a
black box, and the reference solutions are closed-form, brute-force or
plain-numpy restatements of a scheme (:func:`ftcs_step`,
:func:`godunov_step`, :func:`adamw_steps`).
The exceptions build on the tape: :func:`siren_tangents_forward` and
:func:`hyper_tangents_forward` are forward-mode references for the
decoders' code tangents, independent of the library's reverse sweeps;
:func:`code_jacobian` builds the code Jacobian from them for the tests
that build on it; :func:`parameter` and :func:`grad` are the tests'
shorthand for differentiating a function of named leaves; and
:func:`projected_affine_rom` applies the library's solver rate to the
rows of an affine decoder map, then projects in plain numpy.
:func:`spy_trig` counts the tape's sine and cosine evaluations.
"""

from __future__ import annotations

import numpy as np

from pderom import diffmath as dm
from pderom.diffmath import tape
from pderom.solvers import time_derivative


class _TrigSpy:
    """numpy as the tape sees it, with every ``sin``/``cos`` argument kept."""

    def __init__(self):
        self.calls = {"sin": [], "cos": []}

    def __getattr__(self, name):
        return getattr(np, name)

    def sin(self, x, *args, **kwargs):
        self.calls["sin"].append(x)
        return np.sin(x, *args, **kwargs)

    def cos(self, x, *args, **kwargs):
        self.calls["cos"].append(x)
        return np.cos(x, *args, **kwargs)


def spy_trig(monkeypatch) -> dict:
    """Record the array behind every ``np.sin`` and ``np.cos`` call that
    :mod:`pderom.diffmath.tape` makes from now on.  Returns the lists
    ``{"sin": [...], "cos": [...]}``; they fill as the tape runs."""
    spy = _TrigSpy()
    monkeypatch.setattr(tape, "np", spy)
    return spy.calls


def parameter(x) -> dm.Tensor:
    """A leaf tensor that accumulates gradients in ``dm.backward``."""
    return dm.Tensor(x, requires_grad=True)


def grad(scalar_fn, params):
    """Evaluate ``scalar_fn(params)`` and differentiate it.

    ``params`` maps identifiers to tensors or arrays; every value is
    promoted to a gradient-requiring leaf.  Returns the scalar value and
    a gradient map holding one tensor per parameter (zeros for
    parameters the function never touched).  A non-finite value or
    gradient raises ``dm.NonFiniteError``.
    """
    leaves = {k: parameter(dm.as_tensor(v).data) for k, v in params.items()}
    out = scalar_fn(leaves)
    if not isinstance(out, dm.Tensor) or out.shape != ():
        raise ValueError("scalar_fn must return a scalar Tensor")
    if not np.isfinite(out.data):
        raise dm.NonFiniteError("grad-output")
    gs = dm.backward(out, leaves.values())
    if not all(np.isfinite(g).all() for g in gs):
        raise dm.NonFiniteError("grad-backward")
    return float(out.data), {k: dm.Tensor(g) for k, g in zip(leaves, gs)}


def code_jacobian(config, params, alpha, X):
    """(N*m, k) Jacobian of the flattened decoded field w.r.t. one code.

    Built in forward mode from unit tangents, so it does not run the
    library's Jacobian; a tape tensor, differentiable in reverse mode.
    """
    k = config.latent_dim
    forward = siren_tangents_forward if config.architecture == "siren" else hyper_tangents_forward
    _, dU = forward(config, params, alpha, dm.constant(np.eye(k)), X)
    return dm.transpose(dm.reshape(dU, (k, -1)))


def siren_tangents_forward(config, params, alpha, T, X, fast=False):
    """Siren field and code tangents in forward mode, one copy per tangent.

    The reference for ``decode`` of a ``DualBatch(alpha, T)``: the value
    runs the same ops as the library, and each of the K tangents ``dz``
    is carried through every layer as ``dz -> cos(pre) * ((dz @ W) *
    omega0)``, starting from ``T @ W_a`` on the first layer's code rows.
    ``alpha`` is (k,) or (B, k), ``T`` (K, *alpha.shape) and ``X`` (N, d)
    or (B, n, d).  Returns tape tensors ``u`` (..., n, m) and ``dU``
    (K, ..., n, m).
    """
    a, T = dm.as_tensor(alpha), dm.as_tensor(T)
    shape = a.shape
    xn = config.normalize(X)
    rs = not fast
    a_row = dm.reshape(a, (*shape[:-1], 1, shape[-1]))
    omega0 = dm.constant(np.float64(config.omega0))
    n, d = xn.shape[-2], config.coord_dim
    z = dm.concat([dm.constant(np.broadcast_to(xn, (*shape[:-1], n, d))),
                   dm.matmul(dm.constant(np.ones((n, 1))), a_row, rs)], axis=-1)
    W_a = dm.slice_(params["l0.W"], (slice(d, d + shape[-1]),))
    dz = dm.reshape(T, (T.shape[0], *a_row.shape))
    for i in range(config.layers):
        W = params[f"l{i}.W"]
        dz = dm.matmul(dz, W if i else W_a, rs)
        pre = dm.mul(dm.add(dm.matmul(z, W, rs), params[f"l{i}.b"]), omega0)
        z = dm.sin(pre)
        dz = dm.mul(dm.cos(pre), dm.mul(dz, omega0))
    u = dm.add(dm.matmul(z, params["out.W"], rs), params["out.b"])
    return u, dm.matmul(dz, params["out.W"], rs)


def hyper_tangents_forward(config, params, alpha, T, X, fast=False):
    """Hyper field and code tangents in forward mode, one copy per tangent.

    The reference for ``decode`` of a ``DualBatch(alpha, T)``.  The value
    restates the library's ops in its order, without running its code:
    each layer is ``z W + b + alpha Wm``, and hidden layers multiply it by
    ``[cos(xn freq^T), sin(xn freq^T)]``.  The code enters every layer
    through a (K, ..., 1, width) term ``T @ Wm`` of its bias shift, so a
    layer maps ``dz -> (dz @ W + T @ Wm) * trig`` and the head adds
    ``T @ out.Wm``.  Shapes as in :func:`siren_tangents_forward`.
    """
    a, T = dm.as_tensor(alpha), dm.as_tensor(T)
    shape = a.shape
    rs = not fast
    a_row = dm.reshape(a, (*shape[:-1], 1, shape[-1]))
    T = dm.reshape(T, (T.shape[0], *shape[:-1], 1, shape[-1]))
    xn_t = dm.constant(config.normalize(X))
    z, dz = xn_t, None
    for i in range(config.layers):
        W, b, Wm = (params[f"l{i}.{key}"] for key in ("W", "b", "Wm"))
        phase = dm.matmul(xn_t, dm.transpose(params[f"l{i}.freq"]), rs)
        trig = dm.concat([dm.cos(phase), dm.sin(phase)], axis=-1)
        shift = dm.matmul(T, Wm, rs)
        dpre = shift if dz is None else dm.add(dm.matmul(dz, W, rs), shift)
        z = dm.mul(dm.add(dm.add(dm.matmul(z, W, rs), b), dm.matmul(a_row, Wm, rs)), trig)
        dz = dm.mul(dpre, trig)
    W, b, Wm = (params[f"out.{key}"] for key in ("W", "b", "Wm"))
    u = dm.add(dm.add(dm.matmul(z, W, rs), b), dm.matmul(a_row, Wm, rs))
    return u, dm.add(dm.matmul(dz, W, rs), dm.matmul(T, Wm, rs))


def projected_affine_rom(spec, A: np.ndarray, c: np.ndarray):
    """``(M, b)`` of the exact projected dynamics of an affine decoder.

    The decoder ``u = alpha @ A + c`` (``A`` (k, N), ``c`` (N,)) has the
    code Jacobian ``A^T``.  When the solver rate ``F`` is linear in the
    field, as FTCS diffusion's is, the least-squares projection of
    ``F(u)`` onto that Jacobian is exactly affine in the code:
    ``(A^T)^+ F(u) = M alpha + b`` with ``M = (A^T)^+ F(A)^T`` and
    ``b = (A^T)^+ F(c)``, the least-squares projection ROM (Carlberg et
    al., 2017) on the decoder's manifold.  ``F`` is ``time_derivative``
    applied to each row of ``A`` and to ``c``.
    """
    k = len(A)
    with dm.no_grad():
        FA = time_derivative(spec, dm.constant(A.reshape(k, *spec.grid.shape))).data
        Fc = time_derivative(spec, dm.constant(c.reshape(spec.grid.shape))).data
    P = np.linalg.pinv(A.T)
    return P @ FA.reshape(k, -1).T, P @ Fc.reshape(-1)


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


def fd_check_params(loss_fn, params: dict, step: float = 1e-5, grads=None):
    """Compare reverse-mode gradients of ``loss_fn(params)`` to central FD.

    ``loss_fn`` takes a dict of Tensors and returns a scalar Tensor.
    ``grads`` (name -> Tensor) replaces the reverse-mode gradients of
    ``loss_fn`` when another function's gradients are checked against
    the differences of ``loss_fn``.
    Returns the maximum relative error over all parameter entries, where
    the relative scale is floored at 1e-6 times the largest gradient
    magnitude of that parameter (so near-zero entries do not blow up the
    ratio).
    """
    if grads is None:
        _, grads = grad(loss_fn, params)
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


def adamw_steps(params: dict, grads: list, lr: float, weight_decay: float,
                decayed) -> dict:
    """AdamW in plain numpy: one update per gradient map in ``grads``.

    Adam's moments with beta1 = 0.9, beta2 = 0.999 and eps = 1e-8 (Kingma
    & Ba, 2015), bias-corrected; weight decay decoupled from them and
    applied to the names in ``decayed`` only (Loshchilov & Hutter, 2019).
    The arithmetic follows the library's operation order, so the result
    agrees bitwise.
    """
    p = {k: np.asarray(v, dtype=np.float64) for k, v in params.items()}
    m = {k: np.zeros_like(v) for k, v in p.items()}
    v = {k: np.zeros_like(x) for k, x in p.items()}
    for t, g in enumerate(grads, start=1):
        for k in p:
            m[k] = m[k] * 0.9 + (1.0 - 0.9) * g[k]
            v[k] = v[k] * 0.999 + (1.0 - 0.999) * (g[k] * g[k])
            m_hat = m[k] / (1.0 - 0.9**t)
            v_hat = v[k] / (1.0 - 0.999**t)
            new = p[k] - lr * m_hat / (np.sqrt(v_hat) + 1e-8)
            if weight_decay and k in decayed:
                new = new - lr * weight_decay * p[k]
            p[k] = new
    return p


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


def ftcs_step(u: np.ndarray, kappa: float, dt: float, hy: float, hx: float) -> np.ndarray:
    """One FTCS diffusion step in plain numpy, zero Dirichlet ring.

    The interior is updated from its own values with every neighbour on
    the ring taken as zero, whatever ``u`` holds there; the output ring is
    zero.  The arithmetic follows the library's operation order, so the
    interior agrees bitwise.  ``u`` may carry leading batch axes.
    """
    c = u[..., 1:-1, 1:-1]
    z = np.zeros_like(u)
    z[..., 1:-1, 1:-1] = c
    lap_y = ((z[..., :-2, 1:-1] + z[..., 2:, 1:-1]) - c * 2.0) * (1.0 / (hy * hy))
    lap_x = ((z[..., 1:-1, :-2] + z[..., 1:-1, 2:]) - c * 2.0) * (1.0 / (hx * hx))
    out = np.zeros_like(u)
    out[..., 1:-1, 1:-1] = c + (lap_y + lap_x) * (kappa * dt)
    return out


def godunov_step(w: np.ndarray, mu, dt: float, h: float, x: np.ndarray) -> np.ndarray:
    """One Godunov step of forced Burgers' flow in plain numpy.

    Flux ``max(max(l, 0)^2, min(r, 0)^2) / 2`` at the interface between
    cells i-1 and i, zero-gradient outflow on the right, the source
    ``0.02 exp(mu x)`` and the inflow cell 0 set to 1 whatever ``w``
    holds there.  Library operation order; ``mu`` is a scalar or
    broadcasts as (..., 1) against the leading axes of ``w``.
    """
    right = np.concatenate([w[..., 1:], w[..., -1:]], axis=-1)
    flux = np.maximum(np.maximum(w, 0.0) ** 2.0, np.minimum(right, 0.0) ** 2.0) * 0.5
    df = flux[..., 1:] - flux[..., :-1]
    source = np.exp(np.asarray(mu) * x[1:]) * (0.02 * dt)
    out = np.ones_like(w)
    out[..., 1:] = (w[..., 1:] - df * (dt / h)) + source
    return out
