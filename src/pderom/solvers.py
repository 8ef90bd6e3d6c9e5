"""Differentiable single-step finite-difference solvers.

Two PDEs are built in, both stepped explicitly on regular grids and
composed purely from tape primitives so that gradients of any functional
of a solver step flow back to the input field (and, for the forced
Burgers' problem, to its source parameter):

* ``diffusion2d`` - FTCS for ``u_t = kappa * lap(u)`` on a rectangle
  with zero Dirichlet boundaries.  The boundary ring of the input is
  treated as zero and the output ring stays zero, which makes the step
  exactly linear in the field.
* ``burgers1d`` - Godunov upwind flux for the convex flux ``w^2 / 2``
  plus the exponential source ``0.02 * exp(mu * x)``.  The left boundary
  is an inflow held at ``w = 1`` (ghost state and output pin); the right
  boundary is zero-gradient outflow.

A solver also defines the time derivative used by the training loss:
``(S^n[u] - u) / (n * dt)`` where ``n`` is ``derivative_steps`` (1 gives
the plain one-step rate; larger n averages out noise for solvers that
need it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from . import diffmath as dm
from .diffmath import NonFiniteError, Tensor, as_tensor, constant, no_grad

__all__ = [
    "Grid",
    "SolverSpec",
    "SolverError",
    "StabilityError",
    "CFLError",
    "diffusion_step",
    "burgers_step",
    "time_derivative",
    "rollout",
]

BURGERS_SOURCE_SCALE = 0.02  # source term 0.02 * exp(mu * x)
BURGERS_INFLOW = 1.0


class SolverError(Exception):
    pass


class StabilityError(SolverError):
    """Explicit-scheme stability bound violated at construction."""


class CFLError(SolverError):
    """Advective CFL condition violated by the current state."""

    def __init__(self, cfl: float, max_w: float, rows=()):
        where = f" in batch rows {list(rows)}" if rows else ""
        super().__init__(
            f"CFL violation: dt * max|w| / h = {cfl:.3f} > 1 (max|w| = {max_w:.4g}){where}"
        )
        self.max_w = max_w
        self.rows = list(rows)  # flat indices over the leading batch axes


@dataclass(frozen=True)
class Grid:
    """Regular tensor-product grid; axis order matches field array axes."""

    lo: tuple
    hi: tuple
    shape: tuple

    def __post_init__(self):
        if not (len(self.lo) == len(self.hi) == len(self.shape)):
            raise ValueError("lo, hi, shape must agree in length")
        if any(n < 2 for n in self.shape):
            raise ValueError("need at least two points per axis")
        if any(hi <= lo for lo, hi in zip(self.lo, self.hi)):
            raise ValueError(f"grid bounds need hi > lo on every axis: {self.lo}, {self.hi}")

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def num_points(self) -> int:
        return int(np.prod(self.shape))

    @property
    def spacing(self) -> tuple:
        return tuple(
            (hi - lo) / (n - 1) for lo, hi, n in zip(self.lo, self.hi, self.shape)
        )

    @cached_property
    def _coords(self) -> np.ndarray:
        # built once per grid and read-only: the steppers use it directly
        axes = [
            np.linspace(lo, hi, n)
            for lo, hi, n in zip(self.lo, self.hi, self.shape)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        coords = np.stack([m.reshape(-1) for m in mesh], axis=-1)
        coords.flags.writeable = False
        return coords

    def coords(self) -> np.ndarray:
        """All grid coordinates, row-major over the field axes: (N, d)."""
        return self._coords.copy()


@dataclass(frozen=True)
class SolverSpec:
    """A PDE, its grid, step size, and default physical parameters.

    ``derivative_steps`` selects the time-derivative mode: 1 is the
    single-step rate, n > 1 the n-step averaged rate.
    """

    pde: str  # "diffusion2d" | "burgers1d"
    grid: Grid
    dt: float
    params: dict = field(default_factory=dict)
    derivative_steps: int = 1

    def __post_init__(self):
        if self.pde not in ("diffusion2d", "burgers1d"):
            raise SolverError(f"unknown pde {self.pde!r}")
        if self.dt <= 0:
            raise SolverError("dt must be positive")
        if self.derivative_steps < 1:
            raise SolverError("derivative_steps must be >= 1")
        if self.pde == "diffusion2d":
            if self.grid.ndim != 2:
                raise SolverError("diffusion2d needs a 2-D grid")
            kappa = self.params.get("kappa", 0.0)
            if kappa <= 0:
                raise SolverError("diffusion2d needs kappa > 0")
            h = min(self.grid.spacing)
            limit = h * h / (4.0 * kappa)
            if self.dt > limit:
                raise StabilityError(
                    f"FTCS unstable: dt = {self.dt} exceeds h^2/(4 kappa) = {limit:.5f}"
                )
        else:
            if self.grid.ndim != 1:
                raise SolverError("burgers1d needs a 1-D grid")

    def step(self, u, beta=None):
        if self.pde == "diffusion2d":
            return diffusion_step(u, self.params["kappa"], self.dt, self.grid)
        mu = self.params.get("mu") if beta is None else beta
        return burgers_step(u, mu, self.dt, self.grid)


def _shift2d(u, dy: int, dx: int):
    """Shift the last two axes with zero fill: out[i, j] = u[i-dy, j-dx]."""
    nd = u.ndim
    ny, nx = u.shape[-2], u.shape[-1]
    pw = [(0, 0)] * (nd - 2) + [
        (max(dy, 0), max(-dy, 0)),
        (max(dx, 0), max(-dx, 0)),
    ]
    padded = dm.pad_zero(u, tuple(pw))
    key = (slice(None),) * (nd - 2) + (
        slice(max(-dy, 0), max(-dy, 0) + ny),
        slice(max(-dx, 0), max(-dx, 0) + nx),
    )
    return dm.slice_(padded, key)


@lru_cache(maxsize=16)
def _interior_mask(shape: tuple) -> np.ndarray:
    mask = np.zeros(shape)
    mask[1:-1, 1:-1] = 1.0
    mask.flags.writeable = False
    return mask


def diffusion_step(u, kappa: float, dt: float, grid: Grid) -> Tensor:
    """One FTCS step of 2-D diffusion with zero Dirichlet boundaries.

    The input's boundary ring is treated as zero (decoded fields carry
    arbitrary values there); the output ring is exactly zero.  Linear in
    ``u`` and differentiable through the stencil.
    """
    u = as_tensor(u)
    ny, nx = grid.shape
    if u.shape[-2:] != (ny, nx):
        raise SolverError(f"field shape {u.shape[-2:]} does not match grid {grid.shape}")
    hy, hx = grid.spacing
    mask = constant(_interior_mask((ny, nx)))
    uz = dm.mul(u, mask)
    lap = dm.add(
        dm.mul(
            dm.add(_shift2d(uz, 1, 0), _shift2d(uz, -1, 0)) - dm.mul(uz, 2.0),
            1.0 / (hy * hy),
        ),
        dm.mul(
            dm.add(_shift2d(uz, 0, 1), _shift2d(uz, 0, -1)) - dm.mul(uz, 2.0),
            1.0 / (hx * hx),
        ),
    )
    return dm.mul(dm.add(uz, dm.mul(lap, kappa * dt)), mask)


def _godunov_flux(left, right):
    # convex flux f(w) = w^2/2 with minimum at 0:
    # F = max( f(max(left, 0)), f(min(right, 0)) )
    fl = dm.pow_const(dm.maximum(left, 0.0), 2.0)
    fr = dm.pow_const(dm.minimum(right, 0.0), 2.0)
    return dm.mul(dm.maximum(fl, fr), 0.5)


def burgers_step(w, mu, dt: float, grid: Grid) -> Tensor:
    """One Godunov step of forced inviscid Burgers' flow.

    ``mu`` parameterizes the source ``0.02 * exp(mu x)`` and may be a
    scalar or a tensor broadcastable to the leading axes of ``w``
    (shape (..., 1) for a batch).  Differentiable in both ``w`` and
    ``mu``.  Raises :class:`CFLError` when ``dt * max|w| / h > 1``.
    """
    w = as_tensor(w)
    (n,) = grid.shape
    if w.shape[-1] != n:
        raise SolverError(f"field length {w.shape[-1]} does not match grid {grid.shape}")
    h = grid.spacing[0]
    max_w = float(np.abs(w.data).max())
    cfl = dt * max_w / h
    lead = w.shape[:-1]
    if cfl > 1.0:
        row_cfl = dt * np.abs(w.data).max(axis=-1) / h
        raise CFLError(cfl, max_w, np.flatnonzero(row_cfl > 1.0).tolist() if lead else [])
    inflow = constant(np.broadcast_to(BURGERS_INFLOW, (*lead, 1)))
    left = dm.concat([inflow, w], axis=-1)
    right = dm.concat([w, dm.slice_(w, (slice(None),) * len(lead) + (slice(n - 1, n),))], axis=-1)
    flux = _godunov_flux(left, right)  # (..., n+1) interface fluxes
    df = dm.sub(
        dm.slice_(flux, (slice(None),) * len(lead) + (slice(1, n + 1),)),
        dm.slice_(flux, (slice(None),) * len(lead) + (slice(0, n),)),
    )

    x = grid._coords.reshape(-1)
    mu_t = as_tensor(mu)
    if mu_t.ndim > 0 and mu_t.shape[-1] != 1:
        raise SolverError("mu must be a scalar or have a trailing axis of size 1")
    source = dm.mul(dm.exp(dm.mul(mu_t, constant(x))), BURGERS_SOURCE_SCALE * dt)
    updated = dm.add(dm.sub(w, dm.mul(df, dt / h)), source)

    keep, pin = _inflow_pin(n)
    return dm.add(dm.mul(updated, constant(keep)), constant(pin))


@lru_cache(maxsize=16)
def _inflow_pin(n: int) -> tuple:
    """Read-only ``keep``/``pin`` vectors that hold the inflow cell at w = 1.

    ``w * keep + pin`` sets output w[0] = 1 regardless of the input state.
    """
    keep = np.ones(n)
    keep[0] = 0.0
    pin = np.zeros(n)
    pin[0] = BURGERS_INFLOW
    keep.flags.writeable = pin.flags.writeable = False
    return keep, pin


def time_derivative(spec: SolverSpec, u, beta=None) -> Tensor:
    """Field rate from the solver: ``(S^n[u] - u) / (n dt)``.

    Differentiable with respect to ``u`` through every solver step, so
    training losses built on this rate backpropagate into the decoder.
    """
    u = as_tensor(u)
    un = u
    for _ in range(spec.derivative_steps):
        un = spec.step(un, beta)
    return dm.div(dm.sub(un, u), constant(spec.derivative_steps * spec.dt))


def rollout(spec: SolverSpec, u0: np.ndarray, n_steps: int, save_every: int = 1,
            beta=None) -> np.ndarray:
    """Integrate an initial state, saving every ``save_every`` steps.

    ``u0`` may carry leading batch axes in front of the grid axes, with
    ``beta`` broadcastable to them (shape (B, 1) for a Burgers batch of
    B source exponents).  Every row advances in the same solver call and
    rows never mix, so a batched rollout is bitwise equal to rolling each
    row out on its own.

    Returns the saved states including t = 0, shape
    ``(n_saves, *u0.shape)``.  Each row's history ``out[:, b]`` is one
    contiguous block, so splitting a batch into trajectories copies
    nothing.  A :class:`SolverError` or :class:`NonFiniteError` raised
    by a step propagates with its type and attributes, its message
    ending in ``(step N)``; a CFL violation also names the offending
    batch rows (``CFLError.rows``).
    """
    if n_steps < 0 or save_every < 1:
        raise ValueError("need n_steps >= 0 and save_every >= 1")
    u0 = np.array(u0, dtype=np.float64)
    lead = u0.ndim - spec.grid.ndim
    if lead < 0:
        raise SolverError(f"state shape {u0.shape} has fewer axes than grid {spec.grid.shape}")
    n_saves = n_steps // save_every + 1
    buf = np.empty(u0.shape[:lead] + (n_saves,) + u0.shape[lead:])
    saves = np.moveaxis(buf, lead, 0)
    saves[0] = u0
    with no_grad():
        u = constant(u0)
        for step_index in range(1, n_steps + 1):
            try:
                u = spec.step(u, beta)
            except (SolverError, NonFiniteError) as err:
                err.args = (f"{err} (step {step_index})",)
                raise
            if step_index % save_every == 0:
                saves[step_index // save_every] = u.data
    return saves
