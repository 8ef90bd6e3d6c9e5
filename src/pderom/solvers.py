"""Differentiable single-step finite-difference solvers.

Two PDEs are built in, both stepped explicitly on regular grids and
composed purely from tape primitives so that gradients of any functional
of a solver step flow back to the input field (and, for the forced
Burgers' problem, to its source parameter):

* ``diffusion2d`` - FTCS for ``u_t = kappa * lap(u)`` on a rectangle
  with zero Dirichlet boundaries.  Only the interior is updated, from
  its own values padded with a zero ring; the result is padded with the
  same ring.  So the input's ring is never read, the output's ring is
  +0.0, and the step is exactly linear in the field.
* ``burgers1d`` - Godunov upwind flux for the convex flux ``w^2 / 2``
  plus the exponential source ``0.02 * exp(mu * x)``.  Only cells
  1..n-1 are updated; the inflow value ``w = 1`` is prepended as cell 0.
  The right boundary is zero-gradient outflow: the last interface takes
  cell n-1 as both its states.

A solver also defines the time derivative used by the training loss,
the one-step rate ``(S[u] - u) / dt``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

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
        where = f" at batch positions {list(rows)}" if rows else ""
        super().__init__(
            f"CFL violation: dt * max|w| / h = {cfl:.3f} > 1 (max|w| = {max_w:.4g}){where}"
        )
        self.max_w = max_w
        self.rows = list(rows)  # flat indices over the leading batch axes


def _is_integer(value) -> bool:
    """Whether ``value`` is a count: a Python or numpy integer.

    Bools and floats (even integral ones) are not, since ``range``,
    seeding and array shapes reject them later and far from the config.
    """
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_positive(value) -> bool:
    """Whether ``value`` is a positive finite real number, not a bool."""
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool) and 0 < value < np.inf)


@dataclass(frozen=True)
class Grid:
    """Regular tensor-product grid; axis order matches field array axes."""

    lo: tuple
    hi: tuple
    shape: tuple

    def __post_init__(self):
        if not (len(self.lo) == len(self.hi) == len(self.shape)):
            raise ValueError("lo, hi, shape must agree in length")
        if not all(_is_integer(n) for n in self.shape):
            raise ValueError(f"grid shape entries must be integers, got {self.shape!r}")
        if any(n < 2 for n in self.shape):
            raise ValueError("need at least two points per axis")
        if not all(-np.inf < lo < hi < np.inf for lo, hi in zip(self.lo, self.hi)):
            raise ValueError(f"grid bounds need finite hi > lo on every axis: "
                             f"{self.lo}, {self.hi}")

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
    """A PDE, its grid, step size, and physical parameters."""

    pde: str  # "diffusion2d" | "burgers1d"
    grid: Grid
    dt: float
    params: dict = field(default_factory=dict)  # kappa, or none: burgers' mu is beta

    def __post_init__(self):
        if self.pde not in ("diffusion2d", "burgers1d"):
            raise SolverError(f"unknown pde {self.pde!r}")
        if not _is_positive(self.dt):
            raise SolverError(f"dt must be positive and finite, got {self.dt!r}")
        ndim, keys = (2, {"kappa"}) if self.pde == "diffusion2d" else (1, set())
        if self.grid.ndim != ndim:
            raise SolverError(f"{self.pde} needs a {ndim}-D grid")
        if not isinstance(self.params, dict) or set(self.params) != keys:
            raise SolverError(f"{self.pde} params must be a dict with the keys "
                              f"{sorted(keys)}, got {self.params!r}")
        if self.pde == "diffusion2d":
            kappa = self.params["kappa"]
            if not _is_positive(kappa):
                raise SolverError(f"diffusion2d needs a finite kappa > 0, got {kappa!r}")
            h = min(self.grid.spacing)
            limit = h * h / (4.0 * kappa)
            if self.dt > limit:
                raise StabilityError(
                    f"FTCS unstable: dt = {self.dt} exceeds h^2/(4 kappa) = {limit:.5f}"
                )

    def step(self, u, beta=None):
        if self.pde == "diffusion2d":
            return diffusion_step(u, self.params["kappa"], self.dt, self.grid)
        return burgers_step(u, beta, self.dt, self.grid)


def diffusion_step(u, kappa: float, dt: float, grid: Grid) -> Tensor:
    """One FTCS step of 2-D diffusion with zero Dirichlet boundaries.

    Only the interior cells are read and updated.  They are zero-padded
    once, so the stencil sees a zero boundary ring whatever the input
    carries there (decoded fields carry arbitrary values), and the
    updated interior is padded again, so the output ring is exactly
    +0.0.  Linear in ``u`` and differentiable through the stencil.
    """
    u = as_tensor(u)
    ny, nx = grid.shape
    if u.shape[-2:] != (ny, nx):
        raise SolverError(f"field shape {u.shape[-2:]} does not match grid {grid.shape}")
    hy, hx = grid.spacing
    lead = (slice(None),) * (u.ndim - 2)
    ring = ((0, 0),) * (u.ndim - 2) + ((1, 1), (1, 1))
    inner = slice(1, -1)
    ui = dm.slice_(u, lead + (inner, inner))
    uz = dm.pad_zero(ui, ring)
    lap = dm.add(
        dm.mul(
            dm.sub(dm.add(dm.slice_(uz, lead + (slice(0, -2), inner)),
                          dm.slice_(uz, lead + (slice(2, None), inner))), dm.mul(ui, 2.0)),
            1.0 / (hy * hy),
        ),
        dm.mul(
            dm.sub(dm.add(dm.slice_(uz, lead + (inner, slice(0, -2))),
                          dm.slice_(uz, lead + (inner, slice(2, None)))), dm.mul(ui, 2.0)),
            1.0 / (hx * hx),
        ),
    )
    return dm.pad_zero(dm.add(ui, dm.mul(lap, kappa * dt)), ring)


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
    (shape (..., 1) for a batch).  Cells 1..n-1 are updated from the
    fluxes at their interfaces, the last of which copies cell n-1 as
    its right state (zero-gradient outflow); the inflow value
    ``w = 1`` is then prepended as cell 0.  Differentiable in both
    ``w`` and ``mu``.  Raises :class:`CFLError` when
    ``dt * max|w| / h > 1``.
    """
    if mu is None:
        raise SolverError("burgers1d needs mu: pass beta")
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
    key = (slice(None),) * len(lead)
    right = dm.concat([dm.slice_(w, key + (slice(1, n),)),
                       dm.slice_(w, key + (slice(n - 1, n),))], axis=-1)
    flux = _godunov_flux(w, right)  # (..., n) fluxes at interfaces 1..n
    df = dm.sub(
        dm.slice_(flux, key + (slice(1, n),)),
        dm.slice_(flux, key + (slice(0, n - 1),)),
    )

    x = grid._coords.reshape(-1)
    mu_t = as_tensor(mu)
    if mu_t.ndim > 0 and mu_t.shape[-1] != 1:
        raise SolverError("mu must be a scalar or have a trailing axis of size 1")
    source = dm.mul(dm.exp(dm.mul(mu_t, constant(x[1:]))), BURGERS_SOURCE_SCALE * dt)
    # w[1:] sliced again, not shared with ``right``: one shared slice
    # would reorder the gradient's accumulation
    updated = dm.add(dm.sub(dm.slice_(w, key + (slice(1, n),)), dm.mul(df, dt / h)), source)
    inflow = constant(np.broadcast_to(BURGERS_INFLOW, (*lead, 1)))
    return dm.concat([inflow, updated], axis=-1)


def time_derivative(spec: SolverSpec, u, beta=None) -> Tensor:
    """Field rate from one solver step: ``(S[u] - u) / dt``.

    Differentiable with respect to ``u`` through the step, so training
    losses built on this rate backpropagate into the decoder.
    """
    u = as_tensor(u)
    return dm.div(dm.sub(spec.step(u, beta), u), constant(spec.dt))


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
    batch positions (``CFLError.rows``).
    """
    if not (_is_integer(n_steps) and _is_integer(save_every)):
        raise ValueError(f"n_steps and save_every must be integers, "
                         f"got {n_steps!r} and {save_every!r}")
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
