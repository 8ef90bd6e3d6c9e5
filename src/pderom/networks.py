"""Conditional INR decoders and the latent dynamics network.

Two decoder families map a latent code plus a spatial coordinate to
field values, one coordinate at a time (mesh-free):

Fields are scalar: every decoder has one output channel, so a field on
N points is (N, 1).

* ``siren`` - an MLP with ``sin(OMEGA0 * (W z + b))`` hidden layers whose
  input is the coordinate concatenated with the latent code.  The first
  layer is evaluated split: ``sin(p + q)`` with the grid part
  ``p = OMEGA0 (x W_x + b)`` and the code part ``q = OMEGA0 alpha W_a``,
  added by angle addition (``dm.sin_shift``), so its sines run once per
  grid point and once per code instead of once per (code, point) pair.
  :func:`grid_decoder` computes the grid part once for many codes.
  Code tangents come from ``decode`` of a ``DualBatch(alpha, T)``: the
  concatenated ``[x, alpha]`` first layer, because each snapshot may
  bring its own points, then one reverse sweep back down to the code,
  contracted with the K tangent directions ``T``.
* ``hyper`` - trig-modulated layers
  ``(W z + b + W' alpha) * [cos(freq x), sin(freq x)]`` where the latent
  code enters only through the per-layer bias shift ``W' alpha`` and the
  frequencies ``freq`` are trainable.  Because every layer is affine in
  ``alpha``, the whole decoder is an affine map of the code for a fixed
  grid; :func:`affine_decomposition` extracts that map, the value at
  the zero code plus the code Jacobian from one reverse sweep, and
  every hyper field is that map through one product (:func:`_affine_field`).

Both Jacobians are tape tensors, so they stay differentiable in reverse
mode (reverse-over-reverse).

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
    "param_shapes",
    "decode",
    "grid_decoder",
    "affine_decomposition",
    "dynamics_eval",
]

# siren's fixed frequency scale (Sitzmann et al., 2020); read at call time
OMEGA0 = 30.0


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
    coord_lo: tuple = ()
    coord_hi: tuple = ()

    def __post_init__(self):
        if self.architecture not in ("siren", "hyper"):
            raise ValueError(f"unknown decoder architecture {self.architecture!r}")
        counts = ("latent_dim", "layers", "width", "coord_dim")
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


def _uniform(bound: float):
    return lambda rng, shape: rng.uniform(-bound, bound, size=shape)


def _decoder_layout(config: DecoderConfig) -> list:
    """Each decoder parameter as ``(name, shape, draw)`` in draw order;
    ``draw(rng, shape)`` makes its initial value."""
    k, w, d = config.latent_dim, config.width, config.coord_dim
    layout = []
    if config.architecture == "siren":
        fan = d + k
        # first layer uses the 1/fan_in bound, later layers sqrt(6/fan)/OMEGA0
        layout += [("l0.W", (fan, w), _uniform(1.0 / fan)),
                   ("l0.b", (w,), _uniform(1.0 / np.sqrt(fan)))]
        for i in range(1, config.layers):
            layout += [(f"l{i}.W", (w, w), _uniform(np.sqrt(6.0 / w) / OMEGA0)),
                       (f"l{i}.b", (w,), _uniform(1.0 / np.sqrt(w)))]
        # plain linear head: the sine-layer bound would shrink outputs by OMEGA0
        layout += [("out.W", (w, 1), _uniform(np.sqrt(6.0 / w))),
                   ("out.b", (1,), _uniform(1.0 / np.sqrt(w)))]
    else:
        fan = d
        for i in range(config.layers):
            b = 1.0 / np.sqrt(fan)
            layout += [(f"l{i}.W", (fan, w), _uniform(b)), (f"l{i}.b", (w,), _uniform(b)),
                       (f"l{i}.Wm", (k, w), _uniform(1.0 / np.sqrt(k))),
                       (f"l{i}.freq", (w // 2, d),
                        lambda rng, shape: rng.standard_normal(shape) * (30.0 / d))]
            fan = w
        b = 1.0 / np.sqrt(w)
        layout += [("out.W", (w, 1), _uniform(b)), ("out.b", (1,), _uniform(b)),
                   ("out.Wm", (k, 1), _uniform(1.0 / np.sqrt(k)))]
    return layout


def _dynamics_layout(config: DynamicsConfig) -> list:
    """As :func:`_decoder_layout`, for the dynamics network."""
    k, w = config.latent_dim, config.width
    fan = k + (k if config.param_dim else 0)  # beta projects to width k
    layout = []
    if config.param_dim:
        b = 1.0 / np.sqrt(config.param_dim)
        layout += [("beta.W", (config.param_dim, k), _uniform(b)),
                   ("beta.b", (k,), _uniform(b))]
    for i in range(config.layers):
        b = 1.0 / np.sqrt(fan)
        layout += [(f"l{i}.W", (fan, w), _uniform(b)), (f"l{i}.b", (w,), _uniform(b)),
                   (f"l{i}.omega", (), lambda rng, shape: np.array(1.0))]
        fan = w
    b = 1.0 / np.sqrt(fan)
    return layout + [("out.W", (fan, k), _uniform(b)), ("out.b", (k,), _uniform(b))]


def param_shapes(config) -> dict[str, tuple]:
    """The name and shape of every parameter a decoder or dynamics
    config initializes, computed without allocating any of them."""
    layout = (_decoder_layout if isinstance(config, DecoderConfig) else _dynamics_layout)(config)
    return {name: shape for name, shape, _ in layout}


def _init(layout: list, seed: int) -> dict[str, Tensor]:
    rng = np.random.default_rng(seed)
    return {name: Tensor(draw(rng, shape)) for name, shape, draw in layout}


def init_decoder(config: DecoderConfig, seed: int) -> dict[str, Tensor]:
    """Deterministic parameter initialization for a decoder."""
    return _init(_decoder_layout(config), seed)


def init_dynamics(config: DynamicsConfig, seed: int) -> dict[str, Tensor]:
    return _init(_dynamics_layout(config), seed)


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
    returns (N, 1) or (B, N, 1); it stays on the tape, so gradients reach
    the code and, through the bound grid part, the parameters.  It is
    what :func:`decode` runs on a non-dual code, bit for bit.

    A siren's function takes an optional second argument ``rows``,
    shape (P,) for one code or (B, P) for a batch: the grid points to
    evaluate, one set per code.  It gathers those rows of ``sin p`` and
    ``cos p`` and runs every later layer on them alone, returning (P, 1)
    or (B, P, 1); in exact mode that equals the full decode gathered at
    ``rows``, bit for bit.
    """
    xn = _normalized_coords(config, X)
    rs = not fast

    if config.architecture == "hyper":
        A, c = affine_decomposition(config, params, X, fast=fast)

        def predict(code):
            shape = _check_code(config, code, xn)
            rows = code if len(shape) == 2 else dm.reshape(code, (1, shape[-1]))
            return dm.reshape(_affine_field(A, c, rows, rs), (*shape[:-1], len(xn), 1))

        return predict

    # first layer sin(OMEGA0 (x W_x + alpha W_a + b)) = sin(p + q) with the
    # grid part p and the code part q apart; dm.sin_shift adds the angles
    d, omega0 = config.coord_dim, constant(np.float64(OMEGA0))
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
            z = dm.sine_affine(z, params[f"l{i}.W"], params[f"l{i}.b"], OMEGA0, rs)
        return dm.add(dm.matmul(z, params["out.W"], rs), params["out.b"])

    return predict


def decode(config: DecoderConfig, params: dict, alpha, X: np.ndarray,
           fast: bool = False):
    """Evaluate the decoder on every coordinate of ``X``.

    ``alpha`` is a Tensor of shape (k,) or (B, k), and ``X`` is (N, d)
    physical coordinates shared by the batch; a siren also takes (B, N, d)
    per-snapshot grids, one per code.  Other shapes raise ``ValueError``.
    The field is (N, 1) or (B, N, 1).  Rows of the output are computed
    independently; permuting ``X`` permutes the rows, exactly.

    Exact mode computes each output row, and each hyper value, on its own
    (see ``dm.matmul``'s ``row_stable``).  ``fast=True`` switches them to
    single BLAS gemm calls: a few ulps of rounding may then depend on
    row position, which training and inversion loops accept for
    contractions 1.2-2.1x faster at width 64, by shape.

    A plain code runs :func:`grid_decoder`.  Given a ``DualBatch(alpha, T)``
    with tangents T of shape (K, *alpha.shape), a siren returns
    ``DualBatch(u, dU)``: the field and its K directional derivatives
    along T, see :func:`_decode_dual`; a hyper decoder's Jacobian is the
    ``A`` of :func:`affine_decomposition`.
    """
    if not isinstance(alpha, DualBatch):
        return grid_decoder(config, params, X, fast)(alpha)
    if config.architecture == "hyper":
        raise ValueError("decode takes no DualBatch for the hyper architecture: "
                         "its code Jacobian is the A of affine_decomposition")
    return _decode_dual(config, params, alpha, X, fast)


def _affine_field(A: Tensor, c: Tensor, codes: Tensor, exact: bool) -> Tensor:
    """The hyper field ``codes @ A + c``, (B, N), of codes (B, k): one gemm
    in fast mode; in exact mode one (1, k) x (k, 1) product per (code,
    point) pair, a row-stable matmul of the codes as (B, 1, 1, k) with
    ``A^T`` as (N, k, 1).  numpy picks the same kernel whatever the grid
    or batch size only while both operands have unit stride along k,
    which row-stable mode ensures."""
    if not exact:
        return dm.add(dm.matmul(codes, A), c)
    k, n = A.shape
    pairs = dm.matmul(dm.reshape(codes, (-1, 1, 1, k)),
                      dm.reshape(dm.transpose(A), (n, k, 1)), True)
    return dm.add(dm.reshape(pairs, (-1, n)), c)


def _decode_dual(config: DecoderConfig, params: dict, alpha: DualBatch,
                 X: np.ndarray, fast: bool) -> DualBatch:
    """A siren's field and code tangents, by the chain rule written out.

    Every step is a tape op, so the tangents stay differentiable in
    reverse mode.  The decoder acts pointwise with one output per point,
    so one reverse (adjoint) sweep, vectorized over the points, after
    one value pass gives the (..., n, k) gradient of the output with
    respect to the code, whatever the number of tangents; only the final
    contraction with the K tangents ``T`` scales with K.  The tangents
    come back as (K, ..., n, 1), shaped like K copies of the field.

    The sweep seeds ``g = out.W^T``, then per layer from the last down
    maps ``g -> (g * cos(pre)) @ (OMEGA0 W^T)``, with the first layer's
    code rows ``W_a`` at the bottom.
    """
    a = alpha.value
    xn = _normalized_coords(config, X)
    shape = _check_code(config, a, xn)
    rs = not fast
    lead = len(shape) - 1

    # value through the concatenated [x, alpha] first layer: every
    # snapshot may come with its own points, so no grid part is shared
    a_row = dm.reshape(a, (*shape[:-1], 1, shape[-1]))
    omega0 = constant(np.float64(OMEGA0))
    n, d = xn.shape[-2], config.coord_dim
    z = dm.concat([constant(np.broadcast_to(xn, (*shape[:-1], n, d))),
                   dm.matmul(constant(np.ones((n, 1))), a_row, rs)], axis=-1)
    pres = []
    for i in range(config.layers):
        pres.append(dm.mul(dm.add(dm.matmul(z, params[f"l{i}.W"], rs),
                                  params[f"l{i}.b"]), omega0))
        z = dm.sin(pres[-1])
    u = dm.add(dm.matmul(z, params["out.W"], rs), params["out.b"])
    # the adjoint, (..., 1, width), broadcast over the points by the
    # first cos(pre)
    g = dm.reshape(params["out.W"], (*(1,) * lead, 1, config.width))
    W_a = dm.slice_(params["l0.W"], (slice(d, d + shape[-1]),))
    for i in reversed(range(config.layers)):
        W = params[f"l{i}.W"] if i else W_a
        g = dm.matmul(dm.mul(g, dm.cos(pres[i])), dm.mul(dm.transpose(W), omega0), rs)
    # contract the (..., n, k) code gradients with T^T (..., k, K)
    T_t = dm.transpose(alpha.tangent, (*range(1, lead + 2), 0))
    dU = dm.matmul(g, T_t, rs)  # (..., n, K)
    dU = dm.transpose(dU, (lead + 1, *range(lead + 1)))
    return DualBatch(u, dm.reshape(dU, (*dU.shape, 1)))


def affine_decomposition(config: DecoderConfig, params: dict, X: np.ndarray,
                         fast: bool = False):
    """Express a hyper decoder on a fixed grid as ``u = alpha @ A + c``.

    Returns ``(A, c)`` with ``A`` of shape (k, N) and ``c`` of shape
    (N,), both tape tensors.  Exact for the hyper architecture, whose
    layers are affine in the code; rejected for siren.  ``X`` is one
    grid of shape (N, d).  :func:`_affine_field` evaluates the map: a
    batch costs one (B, k) x (k, N) product instead of B network passes.

    Every layer computes ``z W + b + alpha Wm``, and hidden layers multiply
    it by their modulation ``trig = [cos(xn freq^T), sin(xn freq^T)]``, so
    ``c`` is one pass without the code's shifts ``alpha Wm``.  The code
    Jacobian ``A`` takes one reverse sweep: seed ``g = out.W^T`` and
    ``grad = out.Wm^T``, then per layer from the last down ``h = g * trig``,
    ``grad += h @ Wm^T`` and ``g = h @ W^T``.  ``A`` is the transpose of
    the (N, k) ``grad``.
    """
    if config.architecture != "hyper":
        raise ValueError("affine decomposition requires the hyper architecture")
    X = np.asarray(X)
    if X.ndim != 2:
        raise ValueError(
            f"affine decomposition needs one grid of shape (N, {config.coord_dim}), "
            f"got coordinates of shape {X.shape}"
        )
    xn_t = constant(_normalized_coords(config, X))
    rs = not fast
    z, trigs = xn_t, []
    for i in range(config.layers):
        z = dm.add(dm.matmul(z, params[f"l{i}.W"], rs), params[f"l{i}.b"])
        phase = dm.matmul(xn_t, dm.transpose(params[f"l{i}.freq"]), rs)
        trigs.append(dm.concat([dm.cos(phase), dm.sin(phase)], axis=-1))
        z = dm.mul(z, trigs[-1])
    u = dm.add(dm.matmul(z, params["out.W"], rs), params["out.b"])
    g = dm.reshape(params["out.W"], (1, config.width))
    grad = dm.reshape(params["out.Wm"], (1, config.latent_dim))
    for i in reversed(range(config.layers)):
        h = dm.mul(g, trigs[i])
        grad = dm.add(grad, dm.matmul(h, dm.transpose(params[f"l{i}.Wm"]), rs))
        if i:
            g = dm.matmul(h, dm.transpose(params[f"l{i}.W"]), rs)
    return dm.transpose(grad), dm.reshape(u, (len(X),))


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
