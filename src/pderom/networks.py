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
  because each snapshot may bring its own points, and then one reverse
  sweep per output channel back down to the code.
* ``hyper`` - trig-modulated layers
  ``(W z + b + W' alpha) * [cos(freq x), sin(freq x)]`` where the latent
  code enters only through the per-layer bias shift ``W' alpha`` and the
  frequencies ``freq`` are trainable.  Because every layer is affine in
  ``alpha``, the whole decoder is an affine map of the code for a fixed
  grid; :func:`affine_decomposition` extracts that map, the value at
  the zero code plus the code Jacobian from one dual decode, so
  training and inversion can decode whole batches with a single matmul.

Code tangents and Jacobians come from one call: ``decode`` of a
``DualBatch(alpha, T)`` returns the field and its derivatives along the
K tangent directions ``T``; with ``T = eye(k)`` (one unit tangent per
latent) the tangents are the rows of the transposed Jacobian
``du/dalpha``.  For both decoders they cost one value pass and ``m``
reverse sweeps (one per output channel) plus one contraction with
``T``, the only work that grows with K.  They are tape tensors, so the
Jacobian stays differentiable in reverse mode (reverse-over-reverse).

The dynamics network is an MLP with the parameterized Swish activation
``x * sigmoid(x * softplus(omega))``; for parameterized PDEs a trainable
linear transform of the PDE parameters is concatenated with the code.

Parameters live in flat ``{name: Tensor}`` dicts so the optimizer can
treat every network uniformly.  Coordinates are normalized to
``[-1, 1]`` per axis using bounds carried by the decoder config; queries
outside the bounds simply extrapolate the continuous field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffmath as dm
from .diffmath import DualBatch, Tensor, constant
from .solvers import _is_integer

__all__ = [
    "DecoderConfig",
    "DynamicsConfig",
    "init_decoder",
    "init_dynamics",
    "decode",
    "grid_decoder",
    "affine_decomposition",
    "dynamics_eval",
]


def _check_counts(config, names) -> None:
    """Raise ``ValueError`` unless each named field is an integer
    (:func:`solvers._is_integer`)."""
    for name in names:
        value = getattr(config, name)
        if not _is_integer(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")


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
        counts = ("latent_dim", "layers", "width", "coord_dim", "out_channels")
        _check_counts(self, counts)
        for name in counts:
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.architecture == "hyper" and self.width % 2 != 0:
            raise ValueError("hyper decoder width must be even (cos/sin split)")
        if len(self.coord_lo) not in (0, self.coord_dim) or len(self.coord_hi) != len(self.coord_lo):
            raise ValueError("coordinate bounds must match coord_dim or be empty")
        if not all(-np.inf < lo < hi < np.inf for lo, hi in zip(self.coord_lo, self.coord_hi)):
            raise ValueError("coord_hi must exceed coord_lo on every axis, both finite")
        if not 0 < self.omega0 < np.inf:
            raise ValueError(f"omega0 must be positive and finite, got {self.omega0!r}")

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
        _check_counts(self, ("latent_dim", "layers", "width", "param_dim"))
        for name in ("latent_dim", "layers", "width"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.param_dim < 0:
            raise ValueError("param_dim must be >= 0")


def init_decoder(config: DecoderConfig, seed: int) -> dict[str, Tensor]:
    """Deterministic parameter initialization for a decoder."""
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    k, w, d, m = config.latent_dim, config.width, config.coord_dim, config.out_channels
    if config.architecture == "siren":
        fan = d + k
        # first layer uses the 1/fan_in bound, later layers sqrt(6/fan)/omega0
        params["l0.W"] = rng.uniform(-1.0 / fan, 1.0 / fan, size=(fan, w))
        params["l0.b"] = rng.uniform(-1.0 / np.sqrt(fan), 1.0 / np.sqrt(fan), size=(w,))
        for i in range(1, config.layers):
            bound = np.sqrt(6.0 / w) / config.omega0
            params[f"l{i}.W"] = rng.uniform(-bound, bound, size=(w, w))
            params[f"l{i}.b"] = rng.uniform(-1.0 / np.sqrt(w), 1.0 / np.sqrt(w), size=(w,))
        # plain linear head: the sine-layer bound would shrink outputs by omega0
        bound = np.sqrt(6.0 / w)
        params["out.W"] = rng.uniform(-bound, bound, size=(w, m))
        params["out.b"] = rng.uniform(-1.0 / np.sqrt(w), 1.0 / np.sqrt(w), size=(m,))
    else:
        half = w // 2
        fan = d
        for i in range(config.layers):
            b = 1.0 / np.sqrt(fan)
            params[f"l{i}.W"] = rng.uniform(-b, b, size=(fan, w))
            params[f"l{i}.b"] = rng.uniform(-b, b, size=(w,))
            params[f"l{i}.Wm"] = rng.uniform(-1.0 / np.sqrt(k), 1.0 / np.sqrt(k), size=(k, w))
            params[f"l{i}.freq"] = rng.standard_normal((half, d)) * (30.0 / d)
            fan = w
        b = 1.0 / np.sqrt(w)
        params["out.W"] = rng.uniform(-b, b, size=(w, m))
        params["out.b"] = rng.uniform(-b, b, size=(m,))
        params["out.Wm"] = rng.uniform(-1.0 / np.sqrt(k), 1.0 / np.sqrt(k), size=(k, m))
    return {name: Tensor(v) for name, v in params.items()}


def init_dynamics(config: DynamicsConfig, seed: int) -> dict[str, Tensor]:
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    k = config.latent_dim
    fan = k + (k if config.param_dim else 0)  # beta projects to width k
    if config.param_dim:
        b = 1.0 / np.sqrt(config.param_dim)
        params["beta.W"] = rng.uniform(-b, b, size=(config.param_dim, k))
        params["beta.b"] = rng.uniform(-b, b, size=(k,))
    for i in range(config.layers):
        b = 1.0 / np.sqrt(fan)
        params[f"l{i}.W"] = rng.uniform(-b, b, size=(fan, config.width))
        params[f"l{i}.b"] = rng.uniform(-b, b, size=(config.width,))
        params[f"l{i}.omega"] = np.array(1.0)
        fan = config.width
    b = 1.0 / np.sqrt(fan)
    params["out.W"] = rng.uniform(-b, b, size=(fan, k))
    params["out.b"] = rng.uniform(-b, b, size=(k,))
    return {name: Tensor(v) for name, v in params.items()}


def _normalized_coords(config: DecoderConfig, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.shape[-1] != config.coord_dim:
        raise ValueError(
            f"coordinates have dimension {X.shape[-1]}, expected {config.coord_dim}"
        )
    return config.normalize(X)


def _check_code(config: DecoderConfig, alpha: Tensor, xn: np.ndarray) -> tuple:
    """Raise ``ValueError`` unless ``alpha`` is a code (batch) for grid ``xn``.

    Per-snapshot grids (B, n, d) need one code per grid, (B, k).
    """
    shape = alpha.shape
    if shape[-1] != config.latent_dim:
        raise ValueError(
            f"latent code has dimension {shape[-1]}, expected {config.latent_dim}"
        )
    if xn.ndim > 2 and shape[:-1] != xn.shape[:-2]:
        raise ValueError(
            f"codes of shape {shape} do not match per-snapshot grids of shape {xn.shape}"
        )
    return shape


def _check_rows(shape: tuple, rows) -> np.ndarray:
    """``rows`` as an array, or ``ValueError`` unless it holds one row set
    per code of shape ``shape``."""
    rows = np.asarray(rows)
    if rows.ndim != len(shape) or rows.shape[:-1] != shape[:-1]:
        raise ValueError(f"rows of shape {rows.shape} do not match codes of shape "
                         f"{shape}: need one row set per code")
    return rows


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

    A siren's function takes an optional second argument ``rows``,
    shape (P,) for one code or (B, P) for a batch: the grid points to
    evaluate, one set per code.  It gathers those rows of ``sin p`` and
    ``cos p`` and runs every later layer on them alone, returning (P, m)
    or (B, P, m); in exact mode that equals the full decode gathered at
    ``rows``, bit for bit.
    """
    xn = _normalized_coords(config, X)
    rs = not fast

    if config.architecture == "hyper":
        A, c = affine_decomposition(config, params, X, fast=fast)
        n, m = xn.shape[-2], config.out_channels

        def predict(code):
            shape = _check_code(config, code, xn)
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

    def predict(code, rows=None):
        shape = _check_code(config, code, xn)
        rows = None if rows is None else _check_rows(shape, rows)
        q = dm.mul(dm.matmul(dm.reshape(code, (*shape[:-1], 1, shape[-1])), W_a, rs),
                   omega0)
        if rows is None:
            z = dm.sin_shift(sin_p, cos_p, q)
        else:
            z = dm.sin_shift(dm.take_rows(sin_p, rows), dm.take_rows(cos_p, rows), q)
        for i in range(1, config.layers):
            z = dm.sine_affine(z, params[f"l{i}.W"], params[f"l{i}.b"], config.omega0, rs)
        return dm.add(dm.matmul(z, params["out.W"], rs), params["out.b"])

    return predict


def decode(config: DecoderConfig, params: dict, alpha, X: np.ndarray,
           fast: bool = False):
    """Evaluate the decoder on every coordinate of ``X``.

    ``alpha`` is a Tensor of shape (k,) or (B, k), and ``X`` is (N, d)
    physical coordinates shared by the batch, or (B, N, d) per-snapshot
    grids, one per code; other code shapes raise ``ValueError``.  Rows
    of the output are computed independently; permuting ``X`` permutes
    the rows, exactly.

    Exact mode computes every matmul one output row at a time (see
    ``dm.matmul``'s ``row_stable``).  ``fast=True`` switches them to
    single BLAS gemm calls: a few ulps of rounding may then depend on
    row position, which training and inversion loops accept for
    contractions 1.2-2.1x faster at width 64, by shape.

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
    _check_code(config, alpha, xn)
    return _hyper_value(config, params, alpha, xn, not fast)[0]


def _hyper_value(config: DecoderConfig, params: dict, alpha: Tensor,
                 xn: np.ndarray, rs: bool):
    """The hyper field on normalized coordinates, and each layer's trig.

    Every layer computes ``z W + b + alpha Wm``: the code enters only
    through the bias shift ``alpha Wm``.  Hidden layers then multiply by
    their modulation ``[cos(xn freq^T), sin(xn freq^T)]``; the head
    ``out`` stops at the affine part.
    """
    xn_t = constant(xn)
    shape = alpha.shape
    a_row = dm.reshape(alpha, (*shape[:-1], 1, shape[-1]))
    z, trigs = xn_t, []
    for name in [f"l{i}" for i in range(config.layers)] + ["out"]:
        z = dm.add(dm.add(dm.matmul(z, params[f"{name}.W"], rs), params[f"{name}.b"]),
                   dm.matmul(a_row, params[f"{name}.Wm"], rs))
        if name != "out":
            phase = dm.matmul(xn_t, dm.transpose(params[f"{name}.freq"]), rs)
            trigs.append(dm.concat([dm.cos(phase), dm.sin(phase)], axis=-1))
            z = dm.mul(z, trigs[-1])
    return z, trigs


def _decode_dual(config: DecoderConfig, params: dict, alpha: DualBatch,
                 X: np.ndarray, fast: bool) -> DualBatch:
    """The field and its code tangents, by the chain rule written out.

    Every step is a tape op, so the tangents stay differentiable in
    reverse mode.  Both decoders act pointwise with ``m`` outputs per
    point, so the code gradients come from ``m`` reverse (adjoint)
    sweeps, vectorized over the points, after one value pass.  That
    gives the (m, ..., n, k) gradient of each output with respect to the
    code, at the cost of ``m`` sweeps whatever the number of tangents;
    only the final contraction with the K tangents ``T`` scales with K.

    Siren: seed ``g = out.W^T``, then per layer from the last down
    ``g -> (g * cos(pre)) @ (omega0 W^T)``, with the first layer's code
    rows ``W_a`` at the bottom.

    Hyper: the code enters every layer through its bias shift
    ``alpha @ Wm``, so seed ``g = out.W^T`` and ``grad = out.Wm^T``, then
    per layer from the last down ``h = g * trig``, ``grad += h @ Wm^T``
    and ``g = h @ W^T``.  The gradients do not depend on the code: a
    batch of codes on a shared grid pays for one sweep.
    """
    a = alpha.value
    xn = _normalized_coords(config, X)
    shape = _check_code(config, a, xn)
    rs = not fast
    m, lead = config.out_channels, len(shape) - 1

    if config.architecture == "siren":
        # value through the concatenated [x, alpha] first layer: every
        # snapshot may come with its own points, so no grid part is shared
        a_row = dm.reshape(a, (*shape[:-1], 1, shape[-1]))
        omega0 = constant(np.float64(config.omega0))
        n, d = xn.shape[-2], config.coord_dim
        z = dm.concat([constant(np.broadcast_to(xn, (*shape[:-1], n, d))),
                       dm.matmul(constant(np.ones((n, 1))), a_row, rs)], axis=-1)
        pres = []
        for i in range(config.layers):
            pres.append(dm.mul(dm.add(dm.matmul(z, params[f"l{i}.W"], rs),
                                      params[f"l{i}.b"]), omega0))
            z = dm.sin(pres[-1])
        u = dm.add(dm.matmul(z, params["out.W"], rs), params["out.b"])
        # one adjoint per output channel, (m, ..., 1, width), broadcast
        # over the points by the first cos(pre)
        g = dm.reshape(dm.transpose(params["out.W"]), (m, *(1,) * lead, 1, config.width))
        W_a = dm.slice_(params["l0.W"], (slice(d, d + shape[-1]),))
        for i in reversed(range(config.layers)):
            W = params[f"l{i}.W"] if i else W_a
            g = dm.matmul(dm.mul(g, dm.cos(pres[i])), dm.mul(dm.transpose(W), omega0), rs)
    else:
        u, trigs = _hyper_value(config, params, a, xn, rs)
        g = dm.reshape(dm.transpose(params["out.W"]), (m, *(1,) * lead, 1, config.width))
        grad = dm.reshape(dm.transpose(params["out.Wm"]), (m, *(1,) * lead, 1, shape[-1]))
        for i in reversed(range(config.layers)):
            h = dm.mul(g, trigs[i])
            grad = dm.add(grad, dm.matmul(h, dm.transpose(params[f"l{i}.Wm"]), rs))
            if i:
                g = dm.matmul(h, dm.transpose(params[f"l{i}.W"]), rs)
        g = grad
    # contract the (m, ..., n, k) code gradients with T^T (..., k, K)
    T_t = dm.transpose(alpha.tangent, (*range(1, lead + 2), 0))
    dU = dm.matmul(g, T_t, rs)  # (m, ..., n, K)
    return DualBatch(u, dm.transpose(dU, (lead + 2, *range(1, lead + 2), 0)))


def affine_decomposition(config: DecoderConfig, params: dict, X: np.ndarray,
                         fast: bool = False):
    """Express a hyper decoder on a fixed grid as ``u = alpha @ A + c``.

    Returns ``(A, c)`` with ``A`` of shape (k, N*m) and ``c`` of shape
    (N*m,), both tape tensors.  Exact for the hyper architecture, whose
    layers are affine in the code; rejected for siren.  ``X`` is one
    grid of shape (N, d).  ``c`` is the decode of the zero code and
    ``A`` its code Jacobian, from one dual decode with unit tangents:
    one value pass plus ``m`` reverse sweeps.  Decoding a batch then
    costs one (B, k) x (k, N*m) matmul instead of B network passes.
    """
    if config.architecture != "hyper":
        raise ValueError("affine decomposition requires the hyper architecture")
    X = np.asarray(X)
    if X.ndim != 2:
        raise ValueError(
            f"affine decomposition needs one grid of shape (N, {config.coord_dim}), "
            f"got coordinates of shape {X.shape}"
        )
    k = config.latent_dim
    out = decode(config, params, DualBatch(constant(np.zeros(k)), constant(np.eye(k))),
                 X, fast=fast)
    nm = out.value.shape[0] * out.value.shape[1]
    return dm.reshape(out.tangent, (k, nm)), dm.reshape(out.value, (nm,))


def _check_beta(config: DynamicsConfig, beta, codes: int) -> None:
    """Raise ``ValueError`` unless ``beta`` suits ``codes`` codes: given
    exactly when the config is parameterized, as (p,) for one code or
    (codes, p), with p the config's ``param_dim``."""
    if (beta is None) == bool(config.param_dim):
        raise ValueError(
            "beta required for parameterized dynamics and forbidden otherwise"
        )
    if beta is None:
        return
    shape = dm.as_tensor(beta).shape
    if len(shape) not in (1, 2):
        raise ValueError(f"beta must have shape (p,) or (B, p), got {shape}")
    if shape[-1] != config.param_dim:
        raise ValueError(f"beta has dimension {shape[-1]}, expected {config.param_dim}")
    rows = shape[0] if len(shape) == 2 else 1
    if rows != codes:
        raise ValueError(f"beta has {rows} rows for {codes} codes; "
                         "it needs one row per code")


def dynamics_eval(config: DynamicsConfig, params: dict, alpha, beta=None) -> Tensor:
    """Latent rate prediction d(alpha)/dt; autonomous (no time input).

    ``alpha``: (k,) or (B, k).  ``beta`` must be supplied exactly when
    the config is parameterized, with one row per code: (p,) for one
    code, (B, p) for a batch of B codes.  Each hidden layer applies the
    parameterized Swish ``x * sigmoid(x * softplus(omega))``.
    """
    z = dm.as_tensor(alpha)
    single = z.ndim == 1
    if single:
        z = dm.reshape(z, (1, -1))
    _check_beta(config, beta, z.shape[0])
    if config.param_dim:
        b = dm.as_tensor(beta)
        if b.ndim == 1:
            b = dm.reshape(b, (1, -1))
        bstar = dm.add(dm.matmul(b, params["beta.W"]), params["beta.b"])
        z = dm.concat([z, bstar], axis=-1)
    for i in range(config.layers):
        lin = dm.add(dm.matmul(z, params[f"l{i}.W"]), params[f"l{i}.b"])
        z = dm.mul(lin, dm.sigmoid(dm.mul(lin, dm.softplus(params[f"l{i}.omega"]))))
    out = dm.add(dm.matmul(z, params["out.W"]), params["out.b"])
    return dm.reshape(out, (-1,)) if single else out
