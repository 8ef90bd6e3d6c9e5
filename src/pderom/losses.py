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

:func:`batch_terms` is the one definition of both terms: training runs
it on a whole batch of snapshots at once.  For the hyper decoder it goes
through the affine decomposition, one basis decode per step that also
supplies every Jacobian row; for siren one dual decode carries all code
tangents.  The test suite checks it, values and gradients, against a
per-snapshot reference built from the public primitives.
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
    return dm.div(num, stop_gradient(constant(denom_val)))


def _batched_jacobian_siren(config, params, alpha_b: Tensor, coords_b: np.ndarray) -> Tensor:
    """Per-snapshot decoder Jacobians on per-snapshot coordinate subsets.

    ``alpha_b`` is (B, k); ``coords_b`` is (B, n, d).  Returns (B, n*m, k).
    One dual decode carries all k tangents for the whole batch.
    """
    b, k = alpha_b.shape
    seeds = np.broadcast_to(np.eye(k)[:, None, :], (k, b, k))
    dual = DualBatch(alpha_b, constant(seeds))
    out = decode(config, params, dual, coords_b, fast=True)
    nm = out.value.shape[-2] * out.value.shape[-1]
    tang = dm.reshape(out.tangent, (k, b, nm))
    return dm.transpose(tang, (1, 2, 0))


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
    ``obs_indices`` of it.  ``subset_idx``: (B, n_sub) hyper-reduction
    draws, one row per snapshot.  ``beta_b``: (B, p) PDE parameters for
    parameterized problems.

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
        u_full = decode(dec_config, dec_params, alpha_b, X_solver, fast=True)
        u_flat = dm.reshape(u_full, (b, n))

    if obs_indices is None:
        u_obs = u_flat
    else:
        u_obs = dm.transpose(dm.take_rows(dm.transpose(u_flat), obs_indices))
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
