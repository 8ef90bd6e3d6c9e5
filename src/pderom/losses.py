"""Reconstruction and physics-informed dynamics losses.

The reconstruction loss measures normalized field error between decoded
and observed snapshots.  The dynamics loss projects the solver-given
field rate into latent space: decode the field on the solver grid, step
it through the differentiable solver to get ``du/dt``, restrict rate and
decoder Jacobian to a random subset of grid points (stochastic
hyper-reduction), solve the reduced least-squares system for the target
latent rate, and penalize the dynamics network's deviation from it.
Everything stays on the tape, so the dynamics loss regularizes the
decoder and the latent codes through the solver, not just the dynamics
network.

With sparse observations (``obs_indices``) the losses read the field
only at the observed points and on the stencils of the subset points.
A siren then decodes each snapshot only there, on its sample mesh (the
sample mesh of GNAT and DEIM hyper-reduction), and leaves the field
zero elsewhere; the full-grid step reads no zero at a subset point, so
the rate there is the one of the fully decoded field.  With the full
grid observed, every point is read, and the whole grid is decoded.

:func:`batch_terms` is the one definition of both terms: training runs
it on a whole batch of snapshots at once.  For the hyper decoder it goes
through the affine decomposition, one value pass and one reverse sweep
per step that also supply every Jacobian row; for siren one dual decode
gives every row from a single reverse sweep through the decoder.  The
test suite checks it, values and gradients, against a per-snapshot
reference built from the public primitives.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

from . import diffmath as dm
from .diffmath import DualBatch, Tensor, as_tensor, constant, no_grad, qr_lstsq, stop_gradient
from .networks import (
    DecoderConfig,
    DynamicsConfig,
    affine_decomposition,
    decode,
    dynamics_eval,
    grid_decoder,
)
from .solvers import SolverSpec, time_derivative

__all__ = [
    "NORM_GUARD",
    "DegenerateNormError",
    "field_rnmse",
    "latent_rnmse",
    "batch_terms",
]

NORM_GUARD = 1e-12  # norms below this raise instead of producing huge losses


class DegenerateNormError(Exception):
    """A normalization denominator fell below the guard threshold."""


def _label_norms(label: np.ndarray) -> np.ndarray:
    norms = np.sqrt((label * label).sum(axis=-2))
    bad = norms < NORM_GUARD
    if bad.any():
        where = np.argwhere(bad)[0]
        raise DegenerateNormError(
            f"label channel {tuple(where)} has near-zero norm ({norms[tuple(where)]:.3e})"
        )
    return norms


def field_rnmse(pred, label) -> Tensor:
    """Channel-averaged normalized field error.

    ``pred`` is a tensor shaped (..., N, m); ``label`` is an array of
    the same shape.  Per channel the Frobenius error over the spatial
    axis is divided by the label norm, then averaged over channels.
    Scalar for a single snapshot, one value per leading element for a
    batch.
    """
    pred = as_tensor(pred)
    label = np.asarray(label, dtype=np.float64)
    if pred.shape != label.shape:
        raise ValueError(f"shape mismatch: prediction {pred.shape} vs label {label.shape}")
    denom = _label_norms(label)
    diff = dm.sub(pred, constant(label))
    num = dm.sqrt(dm.sum_(dm.mul(diff, diff), axis=-2))
    return dm.mean_(dm.div(num, constant(denom)), axis=-1)


def latent_rnmse(pred, target) -> Tensor:
    """Normalized latent-rate error with a gradient-stopped denominator.

    ``||pred - target|| / ||sg(target)||`` along the last axis.  The
    numerator backpropagates into both arguments; the denominator is
    treated as a constant so that a shrinking target cannot inflate its
    own gradient.
    """
    pred, target = as_tensor(pred), as_tensor(target)
    denom_val = np.sqrt((target.data * target.data).sum(axis=-1))
    if (denom_val < NORM_GUARD).any():
        raise DegenerateNormError(
            f"target latent rate has near-zero norm (min {denom_val.min():.3e})"
        )
    num = dm.norm2(dm.sub(pred, target), axis=-1)
    return dm.div(num, constant(denom_val))


def _batched_jacobian_siren(config, params, alpha_b: Tensor, coords_b: np.ndarray) -> Tensor:
    """Per-snapshot decoder Jacobians on per-snapshot coordinate subsets.

    ``alpha_b`` is (B, k); ``coords_b`` is (B, n, d).  Returns (B, n*m, k).
    One dual decode with unit tangents serves the whole batch: it costs
    ``m`` reverse sweeps through the decoder, and only its final
    contraction with the k tangents grows with k.
    """
    b, k = alpha_b.shape
    seeds = np.broadcast_to(np.eye(k)[:, None, :], (k, b, k))
    dual = DualBatch(alpha_b, constant(seeds))
    out = decode(config, params, dual, coords_b, fast=True)
    nm = out.value.shape[-2] * out.value.shape[-1]
    tang = dm.reshape(out.tangent, (k, b, nm))
    return dm.transpose(tang, (1, 2, 0))


def _sample_mesh(spec: SolverSpec, obs_indices: np.ndarray, subset_idx: np.ndarray):
    """Each snapshot's sample mesh: the grid points its loss terms read.

    That is the observed points ``obs_indices`` plus each subset point
    (``subset_idx``, (B, n_sub)) and its neighbours along every grid
    axis, which hold the stencils of both built-in steps.  Returns
    ``(rows, place)``: ``rows`` (B, P) holds each mesh's grid indices in
    increasing order, padded to the largest mesh by repeating its first
    point; ``place`` (B, N) holds each grid point's position in its row
    of ``rows``, or P off the mesh.
    """
    b = len(subset_idx)
    centre = np.zeros((b, *spec.grid.shape), dtype=bool)
    centre.reshape(b, -1)[np.arange(b)[:, None], subset_idx] = True
    mesh = centre.copy()
    for axis in range(1, centre.ndim):
        m, c = np.swapaxes(mesh, 0, axis), np.swapaxes(centre, 0, axis)  # views
        m[1:] |= c[:-1]
        m[:-1] |= c[1:]
    mesh = mesh.reshape(b, -1)
    mesh[:, obs_indices] = True
    pos = np.cumsum(mesh, axis=1) - 1  # each grid point's place in its row
    width = pos[:, -1].max() + 1
    rows = np.repeat(mesh.argmax(axis=1)[:, None], width, axis=1)
    r, c = np.nonzero(mesh)
    rows[r, pos[r, c]] = c
    return rows, np.where(mesh, pos, width)


def batch_terms(dec_config: DecoderConfig, dec_params: dict,
                dyn_config: DynamicsConfig, dyn_params: dict,
                alpha_b: Tensor, snapshots: np.ndarray,
                spec: SolverSpec, subset_idx: np.ndarray,
                obs_indices: np.ndarray | None = None,
                beta_b: np.ndarray | None = None,
                warmup: bool = False):
    """Both loss terms for a batch of snapshots, sharing decodes.

    ``alpha_b``: (B, k) codes on the tape.  ``snapshots``: (B, N_obs, 1)
    observed values on the training grid, which is either the full
    solver grid (``obs_indices`` None) or the fixed sparse subset
    ``obs_indices`` of it; in the sparse case a siren decodes each
    snapshot only on its sample mesh.  ``subset_idx``: (B, n_sub)
    hyper-reduction draws, one row per snapshot.  ``beta_b``: (B, p) PDE
    parameters for parameterized problems.

    In warm-up mode the dynamics target and the codes feeding the
    dynamics network are detached, so that term trains the dynamics
    network alone while reconstruction trains decoder and codes, exactly
    the two-phase split of the training procedure.

    Returns ``(rec_mean, dyn_mean)`` as scalar tensors.
    """
    if dec_config.out_channels != 1:
        raise ValueError("built-in solvers evolve single-channel fields")
    n = spec.grid.num_points
    b, k = alpha_b.shape
    X_solver = spec.grid.coords()

    beta_t = None if beta_b is None else constant(beta_b)

    # one field decode on the solver grid serves both loss terms; for the
    # hyper decoder the affine map also supplies every Jacobian row
    affine = None
    if dec_config.architecture == "hyper":
        affine = affine_decomposition(dec_config, dec_params, X_solver, fast=True)
        u_flat = dm.add(dm.matmul(alpha_b, affine[0]), affine[1])  # (B, N)
    else:
        predict = grid_decoder(dec_config, dec_params, X_solver, fast=True)
        if obs_indices is None:
            u_flat = dm.reshape(predict(alpha_b), (b, n))
        else:
            # decode the sample meshes; the field stays zero off them,
            # where no loss term reads it
            rows, place = _sample_mesh(spec, obs_indices, subset_idx)
            u_mesh = dm.reshape(predict(alpha_b, rows), rows.shape)
            zero = constant(np.zeros((b, 1)))
            u_flat = dm.take_along(dm.concat([u_mesh, zero], axis=1), place, axis=1)

    if obs_indices is None:
        u_obs = u_flat
    else:
        u_obs = dm.take_along(u_flat, obs_indices[None], axis=1)
    rec = field_rnmse(
        dm.reshape(u_obs, (b, u_obs.shape[-1], 1)), snapshots
    )

    # dynamics term: solver rate and Jacobian restricted to the
    # per-snapshot subsets, projected by least squares
    with no_grad() if warmup else nullcontext():
        rate = time_derivative(spec, dm.reshape(u_flat, (b, *spec.grid.shape)), beta_t)
        rate_sub = dm.take_along(dm.reshape(rate, (b, n)), subset_idx, axis=1)
        if affine is not None:
            jac = dm.take_rows(dm.transpose(affine[0]), subset_idx)  # (B, n_sub, k)
        else:
            jac = _batched_jacobian_siren(dec_config, dec_params, alpha_b, X_solver[subset_idx])
        target = qr_lstsq(jac, rate_sub)
    alpha_in = stop_gradient(alpha_b) if warmup else alpha_b

    pred = dynamics_eval(dyn_config, dyn_params, alpha_in, beta_t)
    dyn = latent_rnmse(pred, target)
    return dm.mean_(rec), dm.mean_(dyn)
