"""Conditional INR decoders and the latent dynamics network.

Two decoder families map a latent code plus a spatial coordinate to
field values, one coordinate at a time (mesh-free):

* ``siren`` - an MLP with ``sin(omega0 * (W z + b))`` hidden layers whose
  input is the coordinate concatenated with the latent code.  The first
  layer is evaluated split: ``sin(p + q)`` with the grid part
  ``p = omega0 (x W_x + b)`` and the code part ``q = omega0 alpha W_a``,
  added by angle addition (``dm.sin_shift``), so its sines run once per
  grid point and once per code instead of once per (code, point) pair.
  :func:`grid_decoder` computes the grid part once for many codes.
  Code tangents run the concatenated ``[x, alpha]`` first layer,
  because each snapshot may bring its own points.
* ``hyper`` - trig-modulated layers
  ``(W z + b + W' alpha) * [cos(freq x), sin(freq x)]`` where the latent
  code enters only through the per-layer bias shift ``W' alpha`` and the
  frequencies ``freq`` are trainable.  Because every layer is affine in
  ``alpha``, the whole decoder is an affine map of the code for a fixed
  grid; :func:`affine_decomposition` extracts that map once so training
  and inversion can decode whole batches with a single matmul.

Code tangents and Jacobians come from one call: ``decode`` of a
``DualBatch(alpha, T)`` returns the field and its derivatives along the
K tangent directions ``T``; with ``T = eye(k)`` (one unit tangent per
latent) the tangents are the rows of the transposed Jacobian
``du/dalpha``.  They are tape tensors, so the Jacobian stays
differentiable in reverse mode.

The dynamics network is an MLP with the parameterized Swish activation
``x * sigmoid(x * softplus(omega))``; for parameterized PDEs a trainable
linear transform of the PDE parameters is concatenated with the code.

Parameters live in flat ``{name: Tensor}`` dicts so the optimizer can
treat every network uniformly.  Coordinates are normalized to
``[-1, 1]`` per axis using bounds carried by the decoder config; queries
outside the bounds simply extrapolate the continuous field.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import diffmath as dm
from .diffmath import DualBatch, Tensor, constant

__all__ = [
    "DecoderConfig",
    "DynamicsConfig",
    "init_decoder",
    "init_dynamics",
    "decode",
    "grid_decoder",
    "affine_decomposition",
    "hyper_layer",
    "dynamics_eval",
]


@dataclass(frozen=True)
class DecoderConfig:
    architecture: str  # "siren" | "hyper"
    latent_dim: int
    layers: int  # number of hidden layers
    width: int
    coord_dim: int
    out_channels: int = 1
    omega0: float = 30.0  # siren frequency scale (fixed, not trained)
    coord_lo: tuple = ()
    coord_hi: tuple = ()

    def __post_init__(self):
        if self.architecture not in ("siren", "hyper"):
            raise ValueError(f"unknown decoder architecture {self.architecture!r}")
        for name in ("latent_dim", "layers", "width", "coord_dim", "out_channels"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.architecture == "hyper" and self.width % 2 != 0:
            raise ValueError("hyper decoder width must be even (cos/sin split)")
        if len(self.coord_lo) not in (0, self.coord_dim) or len(self.coord_hi) != len(self.coord_lo):
            raise ValueError("coordinate bounds must match coord_dim or be empty")
        if any(hi <= lo for lo, hi in zip(self.coord_lo, self.coord_hi)):
            raise ValueError("coord_hi must exceed coord_lo on every axis")

    def normalize(self, X: np.ndarray) -> np.ndarray:
        """Map physical coordinates into [-1, 1] per axis."""
        X = np.asarray(X, dtype=np.float64)
        if not self.coord_lo:
            return X
        lo = np.asarray(self.coord_lo)
        hi = np.asarray(self.coord_hi)
        return 2.0 * (X - lo) / (hi - lo) - 1.0


@dataclass(frozen=True)
class DynamicsConfig:
    latent_dim: int
    layers: int
    width: int
    param_dim: int = 0  # 0: autonomous in alpha only; >0: beta-conditioned

    def __post_init__(self):
        for name in ("latent_dim", "layers", "width"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.param_dim < 0:
            raise ValueError("param_dim must be >= 0")


def _uniform(rng, lo, hi, shape):
    return rng.uniform(lo, hi, size=shape)


def init_decoder(config: DecoderConfig, seed: int) -> dict[str, Tensor]:
    """Deterministic parameter initialization for a decoder."""
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    k, w, d, m = config.latent_dim, config.width, config.coord_dim, config.out_channels
    if config.architecture == "siren":
        fan = d + k
        # first layer uses the 1/fan_in bound, later layers sqrt(6/fan)/omega0
        params["l0.W"] = _uniform(rng, -1.0 / fan, 1.0 / fan, (fan, w))
        params["l0.b"] = _uniform(rng, -1.0 / np.sqrt(fan), 1.0 / np.sqrt(fan), (w,))
        for i in range(1, config.layers):
            bound = np.sqrt(6.0 / w) / config.omega0
            params[f"l{i}.W"] = _uniform(rng, -bound, bound, (w, w))
            params[f"l{i}.b"] = _uniform(rng, -1.0 / np.sqrt(w), 1.0 / np.sqrt(w), (w,))
        # plain linear head: the sine-layer bound would shrink outputs by omega0
        bound = np.sqrt(6.0 / w)
        params["out.W"] = _uniform(rng, -bound, bound, (w, m))
        params["out.b"] = _uniform(rng, -1.0 / np.sqrt(w), 1.0 / np.sqrt(w), (m,))
    else:
        half = w // 2
        fan = d
        for i in range(config.layers):
            b = 1.0 / np.sqrt(fan)
            params[f"l{i}.W"] = _uniform(rng, -b, b, (fan, w))
            params[f"l{i}.b"] = _uniform(rng, -b, b, (w,))
            params[f"l{i}.Wm"] = _uniform(rng, -1.0 / np.sqrt(k), 1.0 / np.sqrt(k), (k, w))
            params[f"l{i}.freq"] = rng.standard_normal((half, d)) * (30.0 / d)
            fan = w
        b = 1.0 / np.sqrt(w)
        params["out.W"] = _uniform(rng, -b, b, (w, m))
        params["out.b"] = _uniform(rng, -b, b, (m,))
        params["out.Wm"] = _uniform(rng, -1.0 / np.sqrt(k), 1.0 / np.sqrt(k), (k, m))
    return {name: Tensor(v) for name, v in params.items()}


def init_dynamics(config: DynamicsConfig, seed: int) -> dict[str, Tensor]:
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    k = config.latent_dim
    fan = k + (k if config.param_dim else 0)  # beta projects to width k
    if config.param_dim:
        b = 1.0 / np.sqrt(config.param_dim)
        params["beta.W"] = _uniform(rng, -b, b, (config.param_dim, k))
        params["beta.b"] = _uniform(rng, -b, b, (k,))
    for i in range(config.layers):
        b = 1.0 / np.sqrt(fan)
        params[f"l{i}.W"] = _uniform(rng, -b, b, (fan, config.width))
        params[f"l{i}.b"] = _uniform(rng, -b, b, (config.width,))
        params[f"l{i}.omega"] = np.array(1.0)
        fan = config.width
    b = 1.0 / np.sqrt(fan)
    params["out.W"] = _uniform(rng, -b, b, (fan, k))
    params["out.b"] = _uniform(rng, -b, b, (k,))
    return {name: Tensor(v) for name, v in params.items()}


def hyper_layer(z, x_trig, layer: dict, alpha, final: bool = False,
                rs: bool = True):
    """One trig-modulated layer: ``(W z + b + Wm alpha) * [cos, sin]``.

    ``x_trig`` is the precomputed modulation vector ``[cos(freq x),
    sin(freq x)]`` for this layer (ignored when ``final``, where the
    layer reduces to the affine part).  The code enters only through the
    bias shift ``Wm alpha``.
    """
    shape = alpha.shape
    mu = dm.matmul(dm.reshape(alpha, (*shape[:-1], 1, shape[-1])), layer["Wm"], rs)
    pre = dm.add(dm.add(dm.matmul(z, layer["W"], rs), layer["b"]), mu)
    if final:
        return pre
    return dm.mul(pre, x_trig)


def _layer(params: dict, name: str) -> dict:
    return {key: params[f"{name}.{key}"] for key in ("W", "b", "Wm")}


def _hyper_trig(params, xn_t: Tensor, i: int, rs: bool) -> Tensor:
    freq = params[f"l{i}.freq"]
    phase = dm.matmul(xn_t, dm.transpose(freq), rs)
    return dm.concat([dm.cos(phase), dm.sin(phase)], axis=-1)


def _normalized_coords(config: DecoderConfig, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.shape[-1] != config.coord_dim:
        raise ValueError(
            f"coordinates have dimension {X.shape[-1]}, expected {config.coord_dim}"
        )
    return config.normalize(X)


def _check_code(config: DecoderConfig, alpha: Tensor) -> tuple:
    shape = alpha.shape
    if shape[-1] != config.latent_dim:
        raise ValueError(
            f"latent code has dimension {shape[-1]}, expected {config.latent_dim}"
        )
    return shape


def grid_decoder(config: DecoderConfig, params: dict, X: np.ndarray,
                 fast: bool = False):
    """Bind a decoder to the grid ``X``: returns ``code -> field``.

    Everything that depends on the grid alone is computed here, once:
    for siren ``sin p`` and ``cos p`` of the first layer's grid part, for
    hyper the affine map ``(A, c)`` of :func:`affine_decomposition`.  The
    returned function takes a code Tensor of shape (k,) or (B, k) and
    returns (N, m) or (B, N, m); it stays on the tape, so gradients reach
    the code and, through the bound grid part, the parameters.  For
    siren it is what :func:`decode` runs on a non-dual code, bit for bit.
    """
    xn = _normalized_coords(config, X)
    rs = not fast

    if config.architecture == "hyper":
        A, c = affine_decomposition(config, params, X, fast=fast)
        n, m = xn.shape[-2], config.out_channels

        def predict(code):
            shape = _check_code(config, code)
            rows = code if len(shape) == 2 else dm.reshape(code, (1, shape[-1]))
            flat = dm.add(dm.matmul(rows, A, rs), c)
            return dm.reshape(flat, (*shape[:-1], n, m))

        return predict

    # first layer sin(omega0 (x W_x + alpha W_a + b)) = sin(p + q) with the
    # grid part p and the code part q apart; dm.sin_shift adds the angles
    d, omega0 = config.coord_dim, constant(np.float64(config.omega0))
    W0 = params["l0.W"]
    p = dm.mul(dm.add(dm.matmul(constant(xn), dm.slice_(W0, (slice(0, d),)), rs),
                      params["l0.b"]), omega0)
    sin_p, cos_p = dm.sin(p), dm.cos(p)
    W_a = dm.slice_(W0, (slice(d, d + config.latent_dim),))

    def predict(code):
        shape = _check_code(config, code)
        q = dm.mul(dm.matmul(dm.reshape(code, (*shape[:-1], 1, shape[-1])), W_a, rs),
                   omega0)
        z = dm.sin_shift(sin_p, cos_p, q)
        for i in range(1, config.layers):
            z = dm.sine_affine(z, params[f"l{i}.W"], params[f"l{i}.b"], config.omega0, rs)
        return dm.add(dm.matmul(z, params["out.W"], rs), params["out.b"])

    return predict


def decode(config: DecoderConfig, params: dict, alpha, X: np.ndarray,
           fast: bool = False):
    """Evaluate the decoder on every coordinate of ``X``.

    ``alpha`` is a Tensor of shape (k,) or (B, k), and ``X`` is (N, d)
    physical coordinates shared by the batch, or (B, N, d) per-snapshot
    grids.  Rows of the output are computed independently; permuting
    ``X`` permutes the rows, exactly.

    ``fast=True`` switches the matmuls to blocked BLAS kernels: a few
    ulps of rounding may then depend on row position, which training
    and inversion loops accept in exchange for an order of magnitude
    in throughput.

    A siren runs :func:`grid_decoder`.  Given a ``DualBatch(alpha, T)``
    with tangents T of shape (K, *alpha.shape), ``decode`` returns
    ``DualBatch(u, dU)``: the field and its K directional derivatives
    along T, see :func:`_decode_dual`.
    """
    if isinstance(alpha, DualBatch):
        return _decode_dual(config, params, alpha, X, fast)
    if config.architecture == "siren":
        return grid_decoder(config, params, X, fast)(alpha)
    xn = _normalized_coords(config, X)
    _check_code(config, alpha)
    rs = not fast
    xn_t = constant(xn)
    z = xn_t
    for i in range(config.layers):
        trig = _hyper_trig(params, xn_t, i, rs)
        z = hyper_layer(z, trig, _layer(params, f"l{i}"), alpha, rs=rs)
    return hyper_layer(z, None, _layer(params, "out"), alpha, final=True, rs=rs)


def _decode_dual(config: DecoderConfig, params: dict, alpha: DualBatch,
                 X: np.ndarray, fast: bool) -> DualBatch:
    """The field and its code tangents, by the chain rule written out.

    Each tangent ``dz`` is carried layer by layer as tape ops, so it stays
    differentiable in reverse mode (forward-over-reverse).  The code
    enters through a (K, ..., 1, width) term broadcast over the points:
    siren's ``T @ W_a`` of the first layer's code rows, hyper's
    ``T @ Wm`` of every bias shift.  A sine layer maps
    ``dz -> cos(pre) * ((dz @ W) * omega0)``, a hyper layer
    ``dz -> (dz @ W + T @ Wm) * trig``.  Training takes hyper Jacobian
    rows from :func:`affine_decomposition` instead; this branch is the
    independent forward-mode check on that map.
    """
    a = alpha.value
    xn = _normalized_coords(config, X)
    shape = _check_code(config, a)
    rs = not fast
    a_row = dm.reshape(a, (*shape[:-1], 1, shape[-1]))
    T = dm.reshape(alpha.tangent, (alpha.num_tangents, *a_row.shape))

    if config.architecture == "siren":
        # value through the concatenated [x, alpha] first layer: every
        # snapshot may come with its own points, so no grid part is shared
        omega0 = constant(np.float64(config.omega0))
        n, d = xn.shape[-2], config.coord_dim
        z = dm.concat([constant(np.broadcast_to(xn, (*shape[:-1], n, d))),
                       dm.matmul(constant(np.ones((n, 1))), a_row, rs)], axis=-1)
        W_a = dm.slice_(params["l0.W"], (slice(d, d + shape[-1]),))
        dz = T
        for i in range(config.layers):
            W = params[f"l{i}.W"]
            dz = dm.matmul(dz, W if i else W_a, rs)
            pre = dm.mul(dm.add(dm.matmul(z, W, rs), params[f"l{i}.b"]), omega0)
            z = dm.sin(pre)
            dz = dm.mul(dm.cos(pre), dm.mul(dz, omega0))
        u = dm.add(dm.matmul(z, params["out.W"], rs), params["out.b"])
        return DualBatch(u, dm.matmul(dz, params["out.W"], rs))

    xn_t = constant(xn)
    z, dz = xn_t, None
    for i in range(config.layers):
        layer = _layer(params, f"l{i}")
        trig = _hyper_trig(params, xn_t, i, rs)
        shift = dm.matmul(T, layer["Wm"], rs)
        dpre = shift if dz is None else dm.add(dm.matmul(dz, layer["W"], rs), shift)
        z = hyper_layer(z, trig, layer, a, rs=rs)
        dz = dm.mul(dpre, trig)
    out = _layer(params, "out")
    u = hyper_layer(z, None, out, a, final=True, rs=rs)
    return DualBatch(u, dm.add(dm.matmul(dz, out["W"], rs), dm.matmul(T, out["Wm"], rs)))


def affine_decomposition(config: DecoderConfig, params: dict, X: np.ndarray,
                         fast: bool = False):
    """Express a hyper decoder on a fixed grid as ``u = alpha @ A + c``.

    Returns ``(A, c)`` with ``A`` of shape (k, N*m) and ``c`` of shape
    (N*m,), both tape tensors.  Exact for the hyper architecture, whose
    layers are affine in the code; rejected for siren.  Decoding a batch
    then costs one (B, k) x (k, N*m) matmul instead of B network passes.
    """
    if config.architecture != "hyper":
        raise ValueError("affine decomposition requires the hyper architecture")
    k = config.latent_dim
    basis = np.vstack([np.zeros((1, k)), np.eye(k)])
    out = decode(config, params, constant(basis), X, fast=fast)  # (k+1, N, m)
    nm = out.shape[1] * out.shape[2]
    flat = dm.reshape(out, (k + 1, nm))
    c = dm.reshape(dm.slice_(flat, (slice(0, 1),)), (nm,))
    A = dm.sub(dm.slice_(flat, (slice(1, k + 1),)), c)
    return A, c


def _swish(x, omega):
    gate = dm.sigmoid(dm.mul(x, dm.softplus(omega)))
    return dm.mul(x, gate)


def dynamics_eval(config: DynamicsConfig, params: dict, alpha, beta=None) -> Tensor:
    """Latent rate prediction d(alpha)/dt; autonomous (no time input).

    ``alpha``: (k,) or (B, k).  ``beta`` must be supplied exactly when
    the config is parameterized, shaped (p,) or (B, p).
    """
    if (beta is None) == bool(config.param_dim):
        raise ValueError(
            "beta required for parameterized dynamics and forbidden otherwise"
        )
    a = dm.as_tensor(alpha)
    single = a.ndim == 1
    if single:
        a = dm.reshape(a, (1, -1))
    z = a
    if config.param_dim:
        b = dm.as_tensor(beta)
        if b.ndim == 1:
            b = dm.reshape(b, (1, -1))
        if b.shape[-1] != config.param_dim:
            raise ValueError(
                f"beta has dimension {b.shape[-1]}, expected {config.param_dim}"
            )
        bstar = dm.add(dm.matmul(b, params["beta.W"]), params["beta.b"])
        if bstar.shape[0] != z.shape[0]:
            bstar = dm.broadcast_to(bstar, (z.shape[0], bstar.shape[1]))
        z = dm.concat([z, bstar], axis=-1)
    for i in range(config.layers):
        lin = dm.add(dm.matmul(z, params[f"l{i}.W"]), params[f"l{i}.b"])
        z = _swish(lin, params[f"l{i}.omega"])
    out = dm.add(dm.matmul(z, params["out.W"]), params["out.b"])
    return dm.reshape(out, (-1,)) if single else out
