"""Forecasting: inversion, latent ODE integration, decoding.

A new initial condition enters the latent space by inversion: minimize
the reconstruction error over the code with AdamW from a zero start,
observing the field on whatever grid is available (full, sparse, or
irregular).  Inversion happens once per forecast; time evolution then
runs entirely in latent space with an adaptive embedded Runge-Kutta
3(2) pair (the Bogacki-Shampine coefficients, FSAL), and any query grid
can be decoded at any target time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffmath as dm
from .diffmath import NonFiniteError, Tensor, backward, constant, no_grad
from .losses import field_rnmse
from .networks import (
    DecoderConfig,
    DynamicsConfig,
    _check_beta,
    _check_counts,
    affine_decomposition,
    decode,
    dynamics_eval,
    grid_decoder,
)
from .training import Model, adamw_init, adamw_step

__all__ = [
    "InversionConfig",
    "IntegratorConfig",
    "IntegrationError",
    "invert",
    "integrate",
    "forecast",
]


@dataclass(frozen=True)
class InversionConfig:
    steps: int = 1000
    lr: float = 0.1

    def __post_init__(self):
        _check_counts(self, ("steps",))
        if self.steps < 1:
            raise ValueError("inversion needs at least one step")
        if not 0 < self.lr < np.inf:
            raise ValueError("inversion lr must be positive and finite")


@dataclass(frozen=True)
class IntegratorConfig:
    rtol: float = 1e-5
    atol: float = 1e-6

    def __post_init__(self):
        if not (0 < self.rtol < np.inf and 0 < self.atol < np.inf):
            raise ValueError("tolerances must be positive and finite")


class IntegrationError(Exception):
    def __init__(self, t_reached: float, msg: str):
        super().__init__(f"{msg} (integration reached t = {t_reached:.6g})")
        self.t_reached = t_reached


def invert(config: DecoderConfig, params: dict, u0: np.ndarray, X: np.ndarray,
           inversion: InversionConfig = InversionConfig()):
    """Latent code(s) minimizing reconstruction error of observed fields.

    ``u0`` is (N, m) for one field or (B, N, m) for a batch sharing the
    grid ``X``; batched fields are inverted independently (their losses
    do not interact).  Returns ``(codes, final_loss)`` where codes is
    (k,) or (B, k) and final_loss the per-field reconstruction error at
    the returned codes.  A NaN or infinity in ``u0`` raises
    ``ValueError`` naming its position; a :class:`NonFiniteError`
    names the inversion step it arose in.
    """
    u0 = np.asarray(u0, dtype=np.float64)
    if u0.ndim not in (2, 3):
        raise ValueError(f"u0 must have shape (N, m) or (B, N, m), got {u0.shape}")
    single = u0.ndim == 2
    batch = u0[None] if single else u0
    bad = np.argwhere(~np.isfinite(batch))
    if len(bad):
        field, row, channel = bad[0]
        where = f"row {row}, channel {channel}" + ("" if single else f" of field {field}")
        raise ValueError(f"u0 has a non-finite value at {where}: "
                         f"{batch[field, row, channel]}")
    b = batch.shape[0]
    k = config.latent_dim

    # the decoder parameters are frozen, so the grid part of the decoder
    # (the affine map for hyper, the first layer's grid sines for siren)
    # is computed once for every step
    predict = grid_decoder(config, {name: constant(v) for name, v in params.items()},
                           X, fast=True)

    alpha = {"alpha": Tensor(np.zeros((b, k)), requires_grad=True)}
    state = adamw_init(alpha)
    for step in range(inversion.steps):
        try:
            loss_rows = field_rnmse(predict(alpha["alpha"]), batch)
            loss = dm.sum_(loss_rows)  # rows are independent; sum decouples
            (g,) = backward(loss, [alpha["alpha"]])
        except NonFiniteError as err:
            err.args = (f"{err} (inversion step {step})",)
            raise
        alpha, state = adamw_step(alpha, {"alpha": g}, state, inversion.lr, 0.0)
    with no_grad():
        final = field_rnmse(predict(alpha["alpha"]), batch).data
    codes = alpha["alpha"].data
    return (codes[0], float(final[0])) if single else (codes, final)


# Values in one (times, points, width) hidden-layer array of the final
# siren decode in forecast: 16 MB of float64.  Unblocked, 201 times on a
# 42 x 42 grid at width 64 make 181 MB arrays, each a fresh mapping that
# the kernel has to zero.
_DECODE_ELEMENTS = 1 << 21


# Bogacki-Shampine 3(2): four stages, FSAL, embedded 2nd-order estimate
_BS_C = (0.0, 0.5, 0.75, 1.0)
_BS_B_HIGH = (2.0 / 9.0, 1.0 / 3.0, 4.0 / 9.0, 0.0)
_BS_B_ERR = (-5.0 / 72.0, 1.0 / 12.0, 1.0 / 9.0, -1.0 / 8.0)  # high minus low
# step-size controller: safety factor, per-step growth limits, step budget
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_MAX_STEPS = 100_000


def _check_times(t0, targets) -> np.ndarray:
    """``targets`` as a float array, or ``ValueError`` unless they are
    finite, strictly increasing and none before ``t0``, itself finite.
    ``t0`` None stands for the first target."""
    targets = np.asarray(targets, dtype=np.float64)
    if targets.ndim != 1 or len(targets) == 0:
        raise ValueError("targets must be a non-empty 1-D time list")
    t0 = targets[0] if t0 is None else t0
    if not np.isfinite(t0):
        raise ValueError(f"t0 must be finite, got {float(t0)}")
    bad = np.flatnonzero(~np.isfinite(targets))
    if len(bad):
        raise ValueError(f"targets must be finite, got targets[{bad[0]}] = {targets[bad[0]]}")
    if (np.diff(targets) <= 0).any():
        raise ValueError("targets must be strictly increasing")
    if targets[0] < t0:
        raise ValueError("targets must not precede t0")
    return targets


def integrate(config: DynamicsConfig, params: dict, alpha0: np.ndarray,
              t0: float, targets, beta=None,
              integrator: IntegratorConfig = IntegratorConfig()) -> np.ndarray:
    """Adaptive RK3(2) integration of the latent dynamics to each target.

    ``t0`` and ``targets`` must be finite, ``targets`` sorted, all >= t0.
    Dense output between accepted steps is the cubic Hermite
    interpolant, third-order accurate for this pair.  Step sizes follow
    a PI controller on the embedded error estimate with rejection when
    the estimate exceeds tolerance; the first step goes to the first
    target after ``t0``.
    ``alpha0`` is one code, shape (latent_dim,).
    """
    alpha0 = np.asarray(alpha0, dtype=np.float64)
    if alpha0.shape != (config.latent_dim,):
        raise ValueError(
            f"alpha0 must have shape ({config.latent_dim},), got {alpha0.shape}"
        )
    targets = _check_times(t0, targets)

    tparams = {name: constant(v) for name, v in params.items()}
    beta_t = None if beta is None else constant(np.asarray(beta, dtype=np.float64))

    def f(y: np.ndarray) -> np.ndarray:
        with no_grad():
            return dynamics_eval(config, tparams, constant(y), beta_t).data

    out = np.empty((len(targets), config.latent_dim))
    write = 0
    t, y = float(t0), alpha0.copy()
    k1 = f(y)

    # emit any targets equal to t0 immediately
    while write < len(targets) and targets[write] <= t:
        out[write] = y
        write += 1
    if write == len(targets):
        return out

    dt = targets[write] - t
    err_prev = 1.0
    order = 3.0

    for _ in range(_MAX_STEPS):
        dt = min(dt, targets[-1] - t)
        k2 = f(y + dt * 0.5 * k1)
        k3 = f(y + dt * 0.75 * k2)
        y_new = y + dt * (
            _BS_B_HIGH[0] * k1 + _BS_B_HIGH[1] * k2 + _BS_B_HIGH[2] * k3
        )
        k4 = f(y_new)  # FSAL: becomes k1 of the next step when accepted
        err_vec = dt * (
            _BS_B_ERR[0] * k1 + _BS_B_ERR[1] * k2
            + _BS_B_ERR[2] * k3 + _BS_B_ERR[3] * k4
        )
        scale = integrator.atol + integrator.rtol * np.maximum(np.abs(y), np.abs(y_new))
        # clamped like err_prev: a zero estimate has no negative power
        err = max(float(np.sqrt(np.mean((err_vec / scale) ** 2))), 1e-10)

        if err <= 1.0:
            t_new = t + dt
            # dense output: cubic Hermite on (y, k1) -- (y_new, k4)
            while write < len(targets) and targets[write] <= t_new + 1e-14:
                s = (targets[write] - t) / dt
                h00 = (1 + 2 * s) * (1 - s) ** 2
                h10 = s * (1 - s) ** 2
                h01 = s * s * (3 - 2 * s)
                h11 = s * s * (s - 1)
                out[write] = h00 * y + h10 * dt * k1 + h01 * y_new + h11 * dt * k4
                write += 1
            if write == len(targets):
                return out
            t, y, k1 = t_new, y_new, k4
            factor = _SAFETY * err ** (-0.7 / order) * err_prev ** (0.4 / order)
            err_prev = err
        else:
            factor = _SAFETY * err ** (-1.0 / order)
        dt *= min(max(factor, _MIN_FACTOR), _MAX_FACTOR)
        if dt <= 1e-14:
            raise IntegrationError(t, "step size underflow")
    raise IntegrationError(t, f"max_steps = {_MAX_STEPS} exhausted")


def forecast(model: Model, u0: np.ndarray, X: np.ndarray, times,
             query_grid: np.ndarray | None = None, beta=None,
             inversion: InversionConfig = InversionConfig(),
             integrator: IntegratorConfig = IntegratorConfig()) -> np.ndarray:
    """Invert an initial condition, evolve it, decode on a query grid.

    ``u0`` is one field of shape (len(X), m) on the grid ``X`` (any
    subset or superset of the solver grid); ``times`` are absolute times
    with the initial condition at ``times[0]``.  Decodes on
    ``query_grid`` (default: the solver grid) at every requested time.
    ``beta`` must carry the PDE parameters for parameterized dynamics.
    Returns (T, N_query, m).  ``query_grid`` must be a finite
    (N_query, coord_dim) array, ``times`` finite and strictly
    increasing, and ``beta`` given exactly when the dynamics are
    parameterized, as (p,) or (1, p); all three are checked before the
    inversion.

    The final decode runs in exact (row-stable) mode.  A siren decodes
    the times in blocks sized so that each hidden layer's array holds
    about ``_DECODE_ELEMENTS`` values; the result is bitwise equal to
    decoding every time at once.
    """
    X = np.asarray(X)
    u0 = np.asarray(u0, dtype=np.float64)
    want = (len(X), model.decoder_config.out_channels)
    if u0.shape != want:
        raise ValueError(f"u0 must have shape {want} (one field on X), got {u0.shape}")
    Xq = model.spec.grid.coords() if query_grid is None else np.asarray(query_grid)
    # before the inversion, which takes longest
    d = model.decoder_config.coord_dim
    if Xq.ndim != 2 or Xq.shape[1] != d:
        raise ValueError(f"query_grid must have shape (N, {d}), got {Xq.shape}")
    if not np.isfinite(Xq).all():
        raise ValueError("query_grid must be finite")
    times = _check_times(None, times)
    _check_beta(model.dynamics_config, beta, 1)
    alpha0, _ = invert(model.decoder_config, model.decoder_params, u0, X, inversion)
    codes = integrate(
        model.dynamics_config, model.dynamics_params, alpha0,
        times[0], times, beta=beta, integrator=integrator,
    )
    dec_params = {k: constant(v) for k, v in model.decoder_params.items()}
    cfg = model.decoder_config
    with no_grad():
        if cfg.architecture == "hyper":
            # exact-mode affine map keeps the per-coordinate row contract
            # while decoding all times with one product
            A, c = affine_decomposition(cfg, dec_params, Xq)
            flat = dm.add(dm.matmul(constant(codes), A, True), c)
            fields = dm.reshape(
                flat, (len(times), len(Xq), cfg.out_channels)
            )
        else:
            # exact-mode rows do not depend on the block they are in
            per_block = max(1, _DECODE_ELEMENTS // (len(Xq) * cfg.width))
            fields = dm.concat(
                [decode(cfg, dec_params, constant(codes[i:i + per_block]), Xq)
                 for i in range(0, len(codes), per_block)], axis=0)
    return fields.data
