"""Two-phase training of decoder, latent table, and dynamics network.

Warm-up epochs route gradients the way the two losses prime different
parts of the model: reconstruction trains the decoder and the
per-snapshot latent codes, while the dynamics term trains only the
dynamics network against detached targets.  After warm-up every
parameter receives the joint weighted gradient.  Both phases use one
AdamW optimizer instance over all parameters; latent codes and biases
are exempt from weight decay.

The latent table holds one zero-initialized code per (trajectory, time)
training snapshot and is optimized like any parameter; batches gather
its rows and scatter gradients back.

Training is a pure function of (dataset, configs, seed): shuffling,
hyper-reduction draws, and initialization all derive from per-purpose
child streams of the run seed, so a rerun reproduces checkpoints bit
for bit with one BLAS thread, however many CPUs the tape's split
passes use (see :mod:`pderom.diffmath.tape`).
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from . import diffmath as dm
from .diffmath import DiffmathError, Tensor, backward
from .losses import DegenerateNormError, batch_terms
from .networks import DecoderConfig, DynamicsConfig, _check_counts, init_decoder, init_dynamics
from .solvers import SolverError, SolverSpec

__all__ = [
    "TrainingConfig",
    "AdamState",
    "Model",
    "adamw_init",
    "adamw_step",
    "decays_weight",
    "lr_at",
    "train",
]

logger = logging.getLogger("pderom.training")

# Adam's moment decay rates and denominator guard (Kingma & Ba, 2015)
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
# lr_at's schedule, and the decay of the matrices that decays_weight picks
LR0 = 0.005
DECAY_RATE = 0.985
DECAY_EVERY = 50
WEIGHT_DECAY = 1e-4
CHECKPOINT_EVERY = 500  # epochs between train's checkpoints, besides the last


@dataclass(frozen=True)
class TrainingConfig:
    epochs: int
    warmup_epochs: int
    batch_size: int = 64
    lam: float = 0.5
    gamma: float = 0.1
    seed: int = 0

    def __post_init__(self):
        _check_counts(self, ("epochs", "warmup_epochs", "batch_size", "seed"))
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 0 <= self.warmup_epochs <= self.epochs:
            raise ValueError("warmup_epochs must lie in [0, epochs]")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lam must lie in [0, 1]")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must lie in (0, 1]")


def lr_at(epoch: int) -> float:
    """Stepped exponential decay: ``LR0 * DECAY_RATE ** (epoch // DECAY_EVERY)``."""
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    return LR0 * DECAY_RATE ** (epoch // DECAY_EVERY)


def decays_weight(name: str) -> bool:
    """Weight decay applies to matrices only, not biases/frequencies/codes."""
    return name.rsplit(".", 1)[-1] in ("W", "Wm")


@dataclass
class AdamState:
    m: dict
    v: dict
    step: int = 0


def adamw_init(params: dict) -> AdamState:
    return AdamState({k: np.zeros_like(p.data) for k, p in params.items()},
                     {k: np.zeros_like(p.data) for k, p in params.items()})


def adamw_step(params: dict, grads: dict, state: AdamState, lr: float,
               weight_decay: float) -> tuple[dict, AdamState]:
    """One decoupled-weight-decay adaptive-moment update.

    ``params`` maps names to tensors, ``grads`` names to arrays of the
    same shape.  ``weight_decay`` applies to the names that
    :func:`decays_weight` selects.  Returns fresh parameter tensors;
    moments are updated in place inside the state.
    """
    t = state.step + 1
    c1 = 1.0 - BETA1**t
    c2 = 1.0 - BETA2**t
    out = {}
    for name, p in params.items():
        g = grads[name]
        pd = p.data
        if g.shape != pd.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {pd.shape}")
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        new = pd - lr * (m / c1) / (np.sqrt(v / c2) + EPS)
        if weight_decay and decays_weight(name):
            new = new - lr * weight_decay * pd
        out[name] = Tensor(new, requires_grad=True)
    state.step = t
    return out, state


@dataclass
class Model:
    """Trained artifact: parameters, latent table, and provenance."""

    decoder_config: DecoderConfig
    decoder_params: dict  # name -> np.ndarray
    dynamics_config: DynamicsConfig
    dynamics_params: dict
    latents: np.ndarray  # (M_tr, T_tr + 1, k)
    spec: SolverSpec
    snapshot_dt: float
    training_config: TrainingConfig
    history: dict = field(default_factory=dict)  # per-epoch float64 series


def _prefixed(dec: dict, dyn: dict, latents: np.ndarray) -> dict:
    """Both networks' parameters and the latent table as trainable leaves."""
    joint = {f"dec.{k}": v.data for k, v in dec.items()}
    joint.update({f"dyn.{k}": v.data for k, v in dyn.items()})
    joint["latents"] = latents
    return {k: Tensor(v, requires_grad=True) for k, v in joint.items()}


def _split(joint: dict):
    dec = {k[4:]: v for k, v in joint.items() if k.startswith("dec.")}
    dyn = {k[4:]: v for k, v in joint.items() if k.startswith("dyn.")}
    return dec, dyn, joint["latents"]


def train(dataset, decoder_config: DecoderConfig, dynamics_config: DynamicsConfig,
          config: TrainingConfig, out_dir=None) -> Model:
    """Optimize (decoder, latent table, dynamics network) on a dataset.

    ``dataset`` provides training trajectories on an observation grid
    that may be the full solver grid or a fixed sparse subset of it; the
    dynamics loss always reconstructs on the full solver grid.  When
    ``out_dir`` is given, writes ``checkpoint-<epochs done>.pdrm`` every
    ``CHECKPOINT_EVERY`` epochs and after the last epoch, and keeps the
    latest one as ``model.pdrm`` too.  Every epoch logs its learning rate,
    mean losses and elapsed time on the ``pderom.training`` logger at
    INFO; the logger's level switches it.

    An error that a step raises ends in ``(epoch e, table rows [...])``,
    the batch's rows of the snapshot table (``trajectory * (t_train + 1)
    + time``), so its batch position i is the i-th row listed: any
    :class:`~pderom.diffmath.DiffmathError` (``NonFiniteError``,
    ``SingularSystemError``), :class:`~pderom.losses.DegenerateNormError`
    or :class:`~pderom.solvers.SolverError` (``CFLError``).
    """
    if decoder_config.latent_dim != dynamics_config.latent_dim:
        raise ValueError(f"decoder latent_dim = {decoder_config.latent_dim}, but dynamics "
                         f"latent_dim = {dynamics_config.latent_dim}")
    spec: SolverSpec = dataset.spec
    trajs = dataset.train
    if not trajs:
        raise ValueError("dataset has no training trajectories")
    t_train = dataset.t_train
    n_traj = len(trajs)
    per_traj = t_train + 1

    snaps = np.stack([tr.snapshots[:per_traj] for tr in trajs])  # (M, T+1, N, 1)
    obs_idx = dataset.obs_indices
    if obs_idx is not None:
        snaps = snaps[:, :, obs_idx]
    n_obs = snaps.shape[2]
    table = snaps.reshape(n_traj * per_traj, n_obs, 1)

    param_dim = dynamics_config.param_dim
    beta_lengths = {np.size(tr.beta) for tr in trajs}
    if beta_lengths != {param_dim}:
        raise ValueError(f"dynamics param_dim = {param_dim}, but the dataset's beta has "
                         f"length {sorted(beta_lengths)}")
    beta_table = None
    if param_dim:
        beta_table = np.repeat(
            np.stack([tr.beta for tr in trajs]), per_traj, axis=0
        )  # (S, p)

    ss = np.random.SeedSequence(config.seed)
    s_dec, s_dyn, s_shuffle, s_hyper = ss.spawn(4)
    dec_params = init_decoder(decoder_config, s_dec)
    dyn_params = init_dynamics(dynamics_config, s_dyn)
    rng_shuffle = np.random.default_rng(s_shuffle)
    rng_hyper = np.random.default_rng(s_hyper)

    k = decoder_config.latent_dim
    n_total = n_traj * per_traj
    joint = _prefixed(dec_params, dyn_params, np.zeros((n_total, k)))
    names = list(joint.keys())
    state = adamw_init(joint)

    n_grid = spec.grid.num_points
    n_sub = int(config.gamma * n_grid)
    if n_sub < k:
        raise ValueError(
            f"gamma = {config.gamma} keeps {n_sub} grid points, fewer than k = {k}"
        )

    history = {"epoch": [], "lr": [], "rec": [], "dyn": []}
    started = time.perf_counter()
    for epoch in range(config.epochs):
        lr = lr_at(epoch)
        warmup = epoch < config.warmup_epochs
        perm = rng_shuffle.permutation(n_total)
        rec_sum = dyn_sum = 0.0
        for lo in range(0, n_total, config.batch_size):
            rows = perm[lo:lo + config.batch_size]
            b = len(rows)
            subset_idx = np.argsort(
                rng_hyper.random((b, n_grid)), axis=1
            )[:, :n_sub]
            dec_p, dyn_p, latents = _split(joint)
            try:
                alpha_b = dm.take_rows(latents, rows)
                rec, dyn = batch_terms(
                    decoder_config, dec_p, dynamics_config, dyn_p,
                    alpha_b, table[rows], spec, subset_idx,
                    obs_indices=obs_idx,
                    beta_b=None if beta_table is None else beta_table[rows],
                    warmup=warmup,
                )
                loss = dm.add(dm.mul(rec, config.lam), dm.mul(dyn, 1.0 - config.lam))
                grads = backward(loss, [joint[n] for n in names])
            except (DiffmathError, DegenerateNormError, SolverError) as err:
                err.args = (f"{err} (epoch {epoch}, table rows {rows.tolist()})",)
                raise
            joint, state = adamw_step(
                joint, dict(zip(names, grads)), state, lr, WEIGHT_DECAY
            )
            rec_sum += float(rec.data) * b
            dyn_sum += float(dyn.data) * b
        history["epoch"].append(epoch)
        history["lr"].append(lr)
        history["rec"].append(rec_sum / n_total)
        history["dyn"].append(dyn_sum / n_total)
        logger.info(
            "epoch=%d lr=%.6g L_rec=%.6g L_dyn=%.6g elapsed=%.1fs",
            epoch, lr, history["rec"][-1], history["dyn"][-1],
            time.perf_counter() - started,
        )
        if out_dir is not None and (
            (epoch + 1) % CHECKPOINT_EVERY == 0 or epoch == config.epochs - 1
        ):
            _checkpoint(
                _model(joint, history, dataset, decoder_config, dynamics_config, config),
                out_dir, epoch,
            )

    return _model(joint, history, dataset, decoder_config, dynamics_config, config)


def _model(joint, history, dataset, decoder_config, dynamics_config, config) -> Model:
    dec_p, dyn_p, latents = _split(joint)
    return Model(
        decoder_config=decoder_config,
        decoder_params={k: v.data for k, v in dec_p.items()},
        dynamics_config=dynamics_config,
        dynamics_params={k: v.data for k, v in dyn_p.items()},
        latents=latents.data.reshape(
            len(dataset.train), dataset.t_train + 1, decoder_config.latent_dim
        ),
        spec=dataset.spec,
        snapshot_dt=dataset.snapshot_dt,
        training_config=config,
        history={k: np.asarray(v, dtype=np.float64) for k, v in history.items()},
    )


def _checkpoint(model: Model, out_dir, epoch: int) -> None:
    from pathlib import Path

    from .data import save_model

    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    save_model(model, path / f"checkpoint-{epoch + 1:06d}.pdrm")
    save_model(model, path / "model.pdrm")
