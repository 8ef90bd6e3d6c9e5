"""Dataset generation, sparse observation grids, and serialization.

Datasets hold full-solver-grid snapshot arrays; a sparse observation
setting is metadata (a fixed index subset shared by every snapshot and
trajectory), so the full-grid labels always stay available for
evaluation while training sees only the restricted views.

Files use one self-describing little-endian container for datasets and
model checkpoints alike: an 8-byte magic string, a format version, a
length-prefixed canonical-JSON header describing configuration and the
name/shape/dtype/offset of every array, then the raw array bytes.
Saving is canonical, so save -> load -> save reproduces a file byte for
byte.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .networks import DecoderConfig, DynamicsConfig, param_shapes
from .solvers import Grid, SolverError, SolverSpec, _is_integer, _is_positive, rollout
from .training import Model, TrainingConfig

__all__ = [
    "Trajectory",
    "Dataset",
    "FormatError",
    "gen_diffusion",
    "gen_burgers",
    "subsample_grid",
    "save_dataset",
    "load_dataset",
    "save_model",
    "load_model",
    "BURGERS_TRAIN_MU",
    "BURGERS_TEST_MU",
]

MAGIC = b"PDROMBIN"
VERSION = 5

BURGERS_TRAIN_MU = (0.015, 0.0171, 0.0193, 0.0214, 0.0236, 0.0257, 0.0279, 0.03)
BURGERS_TEST_MU = (0.0129, 0.0161, 0.0182, 0.0204, 0.0225, 0.0246, 0.0268,
                   0.0289, 0.0321)

DIFFUSION_BLOB_CENTER = (-12.0, 12.0)
DIFFUSION_BLOB_SIGMA = (3.0, 10.0)
DIFFUSION_BLOB_AMP = (0.5, 2.0)


class FormatError(Exception):
    """The file is not a valid container of the expected version."""


@dataclass
class Trajectory:
    """One trajectory of scalar fields (T+1, N, 1) and its finite 1-D ``beta``."""

    snapshots: np.ndarray  # (T+1, N, 1), time-ordered
    beta: np.ndarray  # (p,), empty for unparameterized problems

    def __post_init__(self):
        if self.snapshots.ndim != 3 or self.snapshots.shape[2] != 1:
            raise ValueError(f"snapshots must be (T+1, N, 1), got {self.snapshots.shape}")
        beta = np.asarray(self.beta)
        if beta.ndim != 1 or beta.dtype.kind not in "fiu" or not np.isfinite(beta).all():
            raise ValueError(f"beta must be a finite 1-D numeric array, got {self.beta!r}")


@dataclass
class Dataset:
    """Trajectories of one solver spec, split into train, test and val.

    ``t_train`` and ``t_test`` are integers with 0 <= t_train <= t_test,
    ``seed`` is an integer and ``snapshot_dt`` positive and finite.
    Every train trajectory holds at least t_train + 1 snapshots and
    every test trajectory at least t_test + 1.  Every snapshot array has
    one row per grid point on axis 1 and one channel on axis 2 (see
    :class:`Trajectory`), and every ``beta`` has one length across all
    splits; ``obs_indices``, when set, are unique grid indices in [0, N).
    """

    spec: SolverSpec
    snapshot_dt: float
    t_train: int
    t_test: int
    seed: int  # generator seed; for Burgers only a label (the data is fixed)
    train: list
    test: list
    val: list = field(default_factory=list)
    obs_indices: np.ndarray | None = None

    def __post_init__(self):
        for name in ("t_train", "t_test", "seed"):
            if not _is_integer(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not 0 <= self.t_train <= self.t_test:
            raise ValueError(f"need 0 <= t_train <= t_test, got t_train = {self.t_train}, "
                             f"t_test = {self.t_test}")
        if not _is_positive(self.snapshot_dt):
            raise ValueError(f"snapshot_dt must be positive and finite, got {self.snapshot_dt!r}")
        for split, horizon in (("train", "t_train"), ("test", "t_test")):
            need = getattr(self, horizon) + 1
            for i, traj in enumerate(getattr(self, split)):
                if len(traj.snapshots) < need:
                    raise ValueError(f"{split}[{i}] has {len(traj.snapshots)} snapshots, "
                                     f"fewer than {horizon} + 1 = {need}")
        n = self.spec.grid.num_points
        for split in ("train", "test", "val"):
            for i, traj in enumerate(getattr(self, split)):
                if traj.snapshots.shape[1] != n:
                    raise ValueError(
                        f"{split}[{i}] snapshots have {traj.snapshots.shape[1]} rows on "
                        f"axis 1, but the grid has {n} points")
        sizes = {len(t.beta) for split in ("train", "test", "val") for t in getattr(self, split)}
        if len(sizes) > 1:
            raise ValueError(f"every trajectory needs a beta of one length, got {sorted(sizes)}")
        idx = self.obs_indices
        if idx is None:
            return
        if not (isinstance(idx, np.ndarray) and idx.ndim == 1 and idx.size
                and np.issubdtype(idx.dtype, np.integer)):
            raise ValueError(f"obs_indices must be a non-empty 1-D integer array, got {idx!r}")
        if idx.min() < 0 or idx.max() >= n:
            raise ValueError(f"obs_indices must lie in [0, {n}), "
                             f"got range [{idx.min()}, {idx.max()}]")
        # not np.unique: its first call imports numpy.ma, 1.2 MB of peak RSS
        if np.bincount(idx).max() > 1:
            raise ValueError("obs_indices must be unique")

    @property
    def obs_coords(self) -> np.ndarray:
        coords = self.spec.grid.coords()
        return coords if self.obs_indices is None else coords[self.obs_indices]

    def observed(self, trajectory: Trajectory) -> np.ndarray:
        """Snapshot values restricted to the observation grid."""
        snaps = trajectory.snapshots
        return snaps if self.obs_indices is None else snaps[:, self.obs_indices]


def diffusion_spec() -> SolverSpec:
    grid = Grid(lo=(-20.0, -20.0), hi=(20.0, 20.0), shape=(42, 42))
    return SolverSpec("diffusion2d", grid, dt=0.1, params={"kappa": 2.0})


def burgers_spec() -> SolverSpec:
    grid = Grid(lo=(0.0,), hi=(100.0,), shape=(256,))
    return SolverSpec("burgers1d", grid, dt=0.025, params={})


def _gaussian_blob(grid: Grid, rng: np.random.Generator) -> np.ndarray:
    xy = grid.coords()
    mx = rng.uniform(*DIFFUSION_BLOB_CENTER)
    my = rng.uniform(*DIFFUSION_BLOB_CENTER)
    sigma = rng.uniform(*DIFFUSION_BLOB_SIGMA)
    amp = rng.uniform(*DIFFUSION_BLOB_AMP)
    u = amp * np.exp(
        -((xy[:, 0] - mx) ** 2 + (xy[:, 1] - my) ** 2) / (2.0 * sigma**2)
    ).reshape(grid.shape)
    u[0, :] = u[-1, :] = 0.0  # zero Dirichlet ring, exactly
    u[:, 0] = u[:, -1] = 0.0
    return u


def gen_diffusion(n_traj: int, seed: int, n_test: int = 32, n_val: int = 16) -> Dataset:
    """Random Gaussian-blob trajectories under 2-D diffusion.

    ``n_traj`` training trajectories plus test/validation splits, all
    rolled out to the test horizon (200 saved steps at dt = 0.1); the
    training window marker t_train = 25 lives in the metadata.  Each
    split size must be a non-negative integer, ``n_traj`` at least 1.
    """
    for name, count in (("n_traj", n_traj), ("n_test", n_test), ("n_val", n_val)):
        if not _is_integer(count) or count < 0:
            raise ValueError(f"{name} must be a non-negative integer, got {count!r}")
    if n_traj < 1:
        raise ValueError("need at least one training trajectory")
    spec = diffusion_spec()
    rng = np.random.default_rng(seed)
    t_test = 200
    # every blob is drawn in split order (train, test, val), then all of
    # them roll out as one batch
    u0 = np.stack([_gaussian_blob(spec.grid, rng) for _ in range(n_traj + n_test + n_val)])
    traj = rollout(spec, u0, n_steps=t_test, save_every=1)
    trajs = [Trajectory(traj[:, b].reshape(t_test + 1, -1, 1), np.empty(0))
             for b in range(len(u0))]
    return Dataset(spec, spec.dt, t_train=25, t_test=t_test, seed=seed,
                   train=trajs[:n_traj], test=trajs[n_traj:n_traj + n_test],
                   val=trajs[n_traj + n_test:])


def gen_burgers(seed: int = 0) -> Dataset:
    """The forced Burgers' benchmark: one initial profile, varying source.

    Eight training and nine test source exponents (two of them outside
    the training range), 256-point grid, 200 saved steps of 0.2 time
    units each (solver substeps every 0.025), training window 100.
    The data has no random part: ``seed`` is only recorded as
    ``Dataset.seed``, and every seed gives bitwise-equal snapshots.
    """
    spec = burgers_spec()
    save_every = 8
    t_test = 200
    mus = BURGERS_TRAIN_MU + BURGERS_TEST_MU
    w0 = np.ones((len(mus), spec.grid.shape[0]))
    traj = rollout(spec, w0, n_steps=t_test * save_every, save_every=save_every,
                   beta=np.array(mus)[:, None])
    trajs = [Trajectory(traj[:, b].reshape(t_test + 1, -1, 1), np.array([mu]))
             for b, mu in enumerate(mus)]
    n_train = len(BURGERS_TRAIN_MU)
    return Dataset(spec, spec.dt * save_every, t_train=100, t_test=t_test,
                   seed=seed, train=trajs[:n_train], test=trajs[n_train:])


def subsample_grid(dataset: Dataset, fraction: float, seed: int):
    """Restrict observations to a fixed random subset of the solver grid.

    One uniform without-replacement draw applies to every snapshot of
    every trajectory; full-grid labels stay in the dataset for
    evaluation.  Returns ``(dataset, indices)``: the restricted dataset
    (``obs_indices`` set) and its grid indices.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must lie in (0, 1]")
    n = dataset.spec.grid.num_points
    size = int(fraction * n)
    if size < 1:
        raise ValueError(f"fraction {fraction} keeps no grid points")
    indices = np.random.default_rng(seed).choice(n, size=size, replace=False)
    return replace(dataset, obs_indices=indices), indices


# ----------------------------------------------------------------------
# binary container


def _canonical(header: dict) -> bytes:
    return json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _write_container(path, header: dict, arrays: dict) -> None:
    manifest = []
    offset = 0
    blobs = []
    for name in sorted(arrays):
        arr = np.asarray(arrays[name])
        code = {"float64": "<f8", "int64": "<i8"}.get(arr.dtype.name)
        if code is None:
            raise ValueError(f"unsupported dtype {arr.dtype} for array {name!r}")
        manifest.append(
            {"name": name, "shape": list(arr.shape), "dtype": code, "offset": offset}
        )
        # written straight from the array's buffer; copies only when not C-ordered
        blobs.append(np.ascontiguousarray(arr, dtype=code))
        offset += arr.nbytes
    header = dict(header, arrays=manifest)
    payload = _canonical(header)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(np.uint32(VERSION).tobytes())
        fh.write(np.uint64(len(payload)).tobytes())
        fh.write(payload)
        for raw in blobs:
            fh.write(raw)


def _read_container(path, kind: str) -> tuple[dict, dict]:
    """Header and arrays of a container holding ``kind``.

    Anything but a well-formed container raises :class:`FormatError`:
    a short or truncated file, a corrupt header or manifest, arrays that
    are not laid out back to back, or bytes after the last array.  The
    array bytes carry no checksum, so a flipped bit there goes unseen.
    The whole array section is read into one buffer, and each array is
    a view of it, as a generated dataset's trajectories share its
    rollout buffer.  Every dtype is 8 bytes wide, so the views are
    aligned.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        prefix = fh.read(20)
        if prefix[:8] != MAGIC:
            raise FormatError(
                f"bad magic {prefix[:8]!r}; expected {MAGIC!r} (not a pderom container)"
            )
        if len(prefix) < 20:
            raise FormatError(f"truncated file: {size} bytes, the fixed prefix needs 20")
        version = int(np.frombuffer(prefix[8:12], dtype="<u4")[0])
        if version != VERSION:
            raise FormatError(f"unsupported format version {version}; expected {VERSION}")
        end = 20 + int(np.frombuffer(prefix[12:20], dtype="<u8")[0])
        if end > size:
            raise FormatError(f"truncated file: header needs bytes up to {end}, file has {size}")
        try:
            header = json.loads(fh.read(end - 20))
            manifest = [(e["name"], tuple(e["shape"]), e["dtype"], e["offset"])
                        for e in header["arrays"]]
        except (ValueError, KeyError, TypeError) as err:
            raise FormatError(f"corrupt header: {err}") from err
        if header.get("kind") != kind:
            raise FormatError(f"container holds {header.get('kind')!r}, not a {kind}")
        data_start = end
        names = set()
        for name, shape, code, offset in manifest:
            if (not isinstance(name, str) or name in names or code not in ("<f8", "<i8")
                    or not all(type(n) is int and n >= 0 for n in shape)
                    or offset != end - data_start):
                raise FormatError(f"corrupt manifest entry for array {name!r}")
            names.add(name)
            end += math.prod(shape) * 8
            if end > size:
                raise FormatError(
                    f"truncated file: array {name!r} needs bytes up to {end}, file has {size}"
                )
        if end != size:
            raise FormatError(f"{size - end} unexpected bytes after the last array")
        block = np.empty(end - data_start, dtype=np.uint8)
        if fh.readinto(block) != block.nbytes:
            raise FormatError("truncated file: the arrays end early")
    arrays = {}
    for name, shape, code, offset in manifest:
        nbytes = math.prod(shape) * 8
        arrays[name] = block[offset:offset + nbytes].view(code).reshape(shape)
    return header, arrays


def _take(arrays: dict, prefix: str) -> dict:
    """Remove the arrays named ``prefix`` + name; return them by name."""
    names = [k for k in arrays if k.startswith(prefix)]
    return {k[len(prefix):]: arrays.pop(k) for k in names}


def _check_all_read(kind: str, left: dict) -> None:
    """Raise :class:`FormatError` if a loader left any array unread."""
    if left:
        raise FormatError(f"{kind} container holds arrays it does not use: {sorted(left)}")


@contextmanager
def _malformed(kind: str):
    """Report a missing or invalid header field or array as :class:`FormatError`."""
    try:
        yield
    except (KeyError, TypeError, ValueError, SolverError) as err:
        raise FormatError(f"malformed {kind} container: {err!r}") from err


def save_dataset(dataset: Dataset, path) -> None:
    header = {
        "kind": "dataset",
        "spec": asdict(dataset.spec),
        "snapshot_dt": dataset.snapshot_dt,
        "t_train": dataset.t_train,
        "t_test": dataset.t_test,
        "seed": dataset.seed,
        "splits": {name: len(getattr(dataset, name)) for name in ("train", "test", "val")},
    }
    arrays = {}
    for split in ("train", "test", "val"):
        for i, traj in enumerate(getattr(dataset, split)):
            arrays[f"{split}.{i:04d}.snapshots"] = traj.snapshots
            arrays[f"{split}.{i:04d}.beta"] = traj.beta
    if dataset.obs_indices is not None:
        arrays["obs_indices"] = dataset.obs_indices.astype(np.int64)
    _write_container(path, header, arrays)


def load_dataset(path) -> Dataset:
    """A dataset saved by :func:`save_dataset`.

    Besides the container checks, each split count must be a
    non-negative integer, and the container must hold exactly the
    arrays that the counts and ``obs_indices`` name; anything else
    raises :class:`FormatError`.
    """
    header, arrays = _read_container(path, "dataset")
    with _malformed("dataset"):
        splits = {}
        for split in ("train", "test", "val"):
            count = header["splits"][split]
            if not (_is_integer(count) and count >= 0):
                raise FormatError(f"{split} split count must be a non-negative integer, "
                                  f"got {count!r}")
            splits[split] = [Trajectory(snapshots=arrays.pop(f"{split}.{i:04d}.snapshots"),
                                        beta=arrays.pop(f"{split}.{i:04d}.beta"))
                             for i in range(count)]
        obs = arrays.pop("obs_indices", None)
        _check_all_read("dataset", arrays)
        return Dataset(
            spec=_spec(header["spec"]),
            snapshot_dt=header["snapshot_dt"],
            t_train=header["t_train"],
            t_test=header["t_test"],
            seed=header["seed"],
            train=splits["train"], test=splits["test"], val=splits["val"],
            obs_indices=obs,
        )


def save_model(model: Model, path) -> None:
    header = {
        "kind": "model",
        "decoder_config": asdict(model.decoder_config),
        "dynamics_config": asdict(model.dynamics_config),
        "training_config": asdict(model.training_config),
        "spec": asdict(model.spec),
        "snapshot_dt": model.snapshot_dt,
    }
    arrays = {"latents": model.latents}
    for name, arr in model.decoder_params.items():
        arrays[f"dec.{name}"] = arr
    for name, arr in model.dynamics_params.items():
        arrays[f"dyn.{name}"] = arr
    for name, arr in model.history.items():
        arrays[f"history.{name}"] = np.asarray(arr, dtype=np.float64)
    _write_container(path, header, arrays)


def _config(cls, d: dict):
    """A config dataclass from its header entry, which must name every field."""
    names = {f.name for f in fields(cls)}
    if set(d) != names:
        raise FormatError(f"{cls.__name__} header: missing {sorted(names - set(d))}, "
                          f"unknown {sorted(set(d) - names)}")
    return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in d.items()})


def _spec(d: dict) -> SolverSpec:
    return _config(SolverSpec, {**d, "grid": _config(Grid, d["grid"])})


def _check_params(group: str, params: dict, want: dict) -> None:
    """Raise :class:`FormatError` unless ``params`` has the names and
    shapes ``want`` (:func:`~pderom.networks.param_shapes`)."""
    if params.keys() != want.keys():
        raise FormatError(f"{group} parameters: missing {sorted(want.keys() - params.keys())}, "
                          f"unknown {sorted(params.keys() - want.keys())}")
    for name, shape in want.items():
        if params[name].shape != shape:
            raise FormatError(f"{group} parameter {name!r} has shape "
                              f"{params[name].shape}, expected {shape}")


def load_model(path) -> Model:
    """A model saved by :func:`save_model`.

    Besides the container checks, the parameter names and shapes must
    be those its decoder and dynamics configs initialize (compared
    before anything of those sizes is allocated), and the
    latents' last axis and both configs must share one latent_dim.
    Every array must be ``latents``, a parameter or a history entry.
    Anything else raises :class:`FormatError`.
    """
    header, arrays = _read_container(path, "model")
    with _malformed("model"):
        dec = _config(DecoderConfig, header["decoder_config"])
        dyn = _config(DynamicsConfig, header["dynamics_config"])
        dec_params, dyn_params = _take(arrays, "dec."), _take(arrays, "dyn.")
        _check_params("decoder", dec_params, param_shapes(dec))
        _check_params("dynamics", dyn_params, param_shapes(dyn))
        latents = arrays.pop("latents")
        history = _take(arrays, "history.")
        _check_all_read("model", arrays)
        if not latents.shape[-1:] == (dec.latent_dim,) == (dyn.latent_dim,):
            raise FormatError(f"latents of shape {latents.shape}, decoder latent_dim "
                              f"{dec.latent_dim} and dynamics latent_dim {dyn.latent_dim} "
                              "must agree")
        return Model(
            decoder_config=dec,
            decoder_params=dec_params,
            dynamics_config=dyn,
            dynamics_params=dyn_params,
            latents=latents,
            spec=_spec(header["spec"]),
            snapshot_dt=header["snapshot_dt"],
            training_config=_config(TrainingConfig, header["training_config"]),
            history=history,
        )
