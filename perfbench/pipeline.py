"""One round of a benchmark workload, run in a fresh process.

A round is the whole user pipeline, closed loop with one client:
``gen_*`` (plus ``subsample_grid`` for the sparse workload), then
``save_dataset`` -> ``load_dataset``, ``train`` with an ``out_dir``,
``load_model`` of the final checkpoint and ``forecast`` over the
workload's test initial conditions.  Every output is checked; a failed
check fails the operation it belongs to (gen, train or one forecast),
and a failed train also fails the forecasts that depend on it.

Protocol with ``run.py``: the process prints ``ready`` on stdout just
before its first timed call (so the parent can time set-up from process
start), and one JSON object as its last stdout line.

    python3 perfbench/pipeline.py --workload diffusion-hyper --seed 0 \
        --out .perfbench_out/round [--trace] [--setup-only]

The parent pins BLAS to one thread in the environment; the defaults
below only apply when this file is run by hand.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from pderom import data, inference, losses, training  # noqa: E402
from pderom.networks import DecoderConfig, DynamicsConfig  # noqa: E402
from pderom.training import TrainingConfig  # noqa: E402

# Decoder and dynamics network sizes shared by every workload: latent
# dimension 8, three hidden layers of width 64, batches of 32 snapshots.
LATENT_DIM = 8
LAYERS = 3
WIDTH = 64
BATCH = 32

# The dataset round trip and the model load take milliseconds, and the
# machine's speed moves between episodes a fraction of a second long.  So
# the round repeats each of them for this many seconds where the pipeline
# makes the call.  Consecutive round trips alternate between a slower and
# a faster one (every other one reuses heap pages the one before freed),
# so they are repeated in pairs and io_s takes the median pair.
IO_WINDOW_S = 1.5


@dataclass(frozen=True)
class Workload:
    name: str
    pde: str  # "diffusion" | "burgers"
    architecture: str  # "hyper" | "siren"
    epochs: int
    warmup_epochs: int
    n_forecasts: int
    # Fixed upper bound on ic_rnmse; above it a forecast fails.  A few
    # epochs leave the models undertrained, so each ceiling sits at about
    # twice the worst single forecast seen over seeds 0-9 (1.37, 1.02 and
    # 6.1 in workload order): they catch a broken inversion, not a
    # slightly worse one.  On diffusion-siren-sparse every forecast is
    # already worse than forecasting zero (median 3.4), so its ceiling
    # only catches a blow-up.
    ic_ceiling: float
    n_train: int = 0  # diffusion training trajectories
    sparse_fraction: float | None = None
    # Generations in the gen operation; gen_s is their median.  Those
    # after the first repeat a short stage on a drifting machine
    # (gen_burgers takes about 6 s and runs once).
    gen_runs: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload("diffusion-hyper", "diffusion", "hyper", epochs=8, warmup_epochs=4,
                 n_forecasts=8, ic_ceiling=2.5, n_train=4, gen_runs=3),
        Workload("burgers-siren", "burgers", "siren", epochs=2, warmup_epochs=1,
                 n_forecasts=2, ic_ceiling=2.5),
        Workload("diffusion-siren-sparse", "diffusion", "siren", epochs=2,
                 warmup_epochs=1, n_forecasts=2, ic_ceiling=15.0, n_train=2,
                 sparse_fraction=0.1, gen_runs=5),
    )
}


def configs(w: Workload, spec):
    grid = spec.grid
    dec = DecoderConfig(w.architecture, LATENT_DIM, LAYERS, WIDTH, grid.ndim,
                        coord_lo=tuple(grid.lo), coord_hi=tuple(grid.hi))
    dyn = DynamicsConfig(LATENT_DIM, LAYERS, WIDTH,
                         param_dim=1 if w.pde == "burgers" else 0)
    return dec, dyn


def generate(w: Workload, seed: int):
    if w.pde == "burgers":
        return data.gen_burgers(seed)
    ds = data.gen_diffusion(w.n_train, seed, n_test=w.n_forecasts, n_val=0)
    if w.sparse_fraction is not None:
        ds, _ = data.subsample_grid(ds, w.sparse_fraction, seed)
    return ds


def forecast_cases(w: Workload, ds, seed: int):
    """(test trajectory index, beta) for each forecast of the round.

    Burgers test trajectories share one initial profile, so the seed
    only picks which source exponents are forecast: one inside the
    training range and one outside it.
    """
    if w.pde == "burgers":
        mus = np.array(data.BURGERS_TEST_MU)
        lo, hi = min(data.BURGERS_TRAIN_MU), max(data.BURGERS_TRAIN_MU)
        inside = np.flatnonzero((mus > lo) & (mus < hi))
        outside = np.flatnonzero((mus < lo) | (mus > hi))
        rng = np.random.default_rng(seed)
        picks = [int(rng.choice(inside)), int(rng.choice(outside))]
        return [(i, ds.test[i].beta) for i in picks]
    return [(i, None) for i in range(w.n_forecasts)]


# ----------------------------------------------------------------------
# output checks


def check_dataset(w: Workload, ds) -> list:
    failures = []
    for split in ("train", "test", "val"):
        for i, traj in enumerate(getattr(ds, split)):
            snaps = traj.snapshots
            if not np.isfinite(snaps).all():
                failures.append(f"{split}[{i}] has non-finite values")
            if w.pde == "diffusion":
                field = snaps.reshape(snaps.shape[0], *ds.spec.grid.shape)
                ring = np.concatenate([field[:, 0], field[:, -1],
                                       field[:, :, 0], field[:, :, -1]], axis=1)
                if (ring != 0.0).any():
                    failures.append(f"{split}[{i}] boundary ring is not exactly zero")
            elif (snaps[:, 0] != 1.0).any():
                failures.append(f"{split}[{i}] inflow cell is not exactly 1")
    return failures


def snapshots(ds) -> list:
    return [t.snapshots for split in ("train", "test", "val") for t in getattr(ds, split)]


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


def check_model(returned, loaded) -> tuple:
    """The reloaded checkpoint must equal the returned model bit for bit.

    Returns ``(failures, shape_changes)``.  Arrays are compared by dtype
    and bytes.  A changed shape with identical bits is reported
    separately: the container writes 0-d arrays (the Swish ``omega``
    parameters) back as shape (1,), which broadcasting hides.  The
    container stores every history series as float64 (the epoch counter
    included), so history is compared after that conversion.
    """
    failures, shape_changes = [], []

    def compare(what, a, b):
        if not _same_bits(a, b):
            failures.append(f"reloaded {what} differs")
        elif np.shape(a) != np.shape(b):
            shape_changes.append(f"{what}: {np.shape(a)} -> {np.shape(b)}")

    for attr in ("decoder_config", "dynamics_config", "training_config", "spec",
                 "snapshot_dt"):
        if getattr(returned, attr) != getattr(loaded, attr):
            failures.append(f"reloaded {attr} differs")
    compare("latents", returned.latents, loaded.latents)
    for group in ("decoder_params", "dynamics_params", "history"):
        a, b = getattr(returned, group), getattr(loaded, group)
        if a.keys() != b.keys():
            failures.append(f"reloaded {group} has other keys")
            continue
        for k in a:
            mine = np.asarray(a[k], dtype=np.float64) if group == "history" else a[k]
            compare(f"{group}[{k}]", mine, b[k])
    for k, v in returned.history.items():
        if not np.isfinite(v).all():
            failures.append(f"history {k} has non-finite values")
    return failures, shape_changes


# ----------------------------------------------------------------------
# the round


class Round:
    """Runs one pipeline and collects metrics, checks and operation counts.

    Generation (on the diffusion workloads), the dataset round trip and
    the model load take a fraction of a second, and the speed of a shared
    machine drifts over seconds.  So the round repeats each of them right
    where the pipeline makes the call: the round trip and then generation
    inside the gen operation, before ``train`` (which changes the
    process's malloc settings), and the model load right after ``train``.
    It reports medians; a repeated generation must give the same snapshots
    bit for bit.  Only the pipeline's own call is inside a stage span, so
    the trace counts one pipeline, and the round never holds more than the
    two datasets (generated and reloaded) the pipeline's own gen stage
    holds.
    """

    def __init__(self, w: Workload, seed: int, workdir: Path, tracer=None):
        self.w, self.seed, self.workdir, self.tracer = w, seed, workdir, tracer
        self.ops = {}  # operation name -> list of failure messages
        self.metrics = {}
        self.samples = {"gen_s": [], "round_trip_s": [], "load_model_s": []}
        self.shape_changes = []
        self.ds = self.model = self.digest = None

    def stage(self, name):
        return nullcontext() if self.tracer is None else self.tracer.span(name)

    def op(self, name, fn):
        """Run (part of) an operation; an exception or a failed check fails it."""
        try:
            failures = fn()
        except Exception as err:  # a benchmark round must report, not crash
            failures = [f"{type(err).__name__}: {err}"]
            traceback.print_exc(file=sys.stderr)
        self.ops.setdefault(name, []).extend(failures)
        return not failures

    def timed(self, sample, stage, fn, *args):
        with self.stage(stage) if stage else nullcontext():
            t0 = time.perf_counter()
            out = fn(*args)
            self.samples[sample].append(time.perf_counter() - t0)
        return out

    def round_trip(self, ds, stage=None) -> list:
        """save_dataset to a new file -> load_dataset; the copy becomes ``self.ds``.

        Every saved file must equal the first one byte for byte, which
        checks save -> load -> save.
        """
        path = self.workdir / f"dataset-{len(self.samples['round_trip_s'])}.pdrm"
        self.ds = None

        def save_load():
            data.save_dataset(ds, path)
            return data.load_dataset(path)

        self.ds = self.timed("round_trip_s", stage, save_load)
        digest = file_digest(path)
        path.unlink()
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            return ["dataset file differs from the first one saved"]
        return []

    def gen(self) -> list:
        ds = self.timed("gen_s", "gen", generate, self.w, self.seed)
        failures = check_dataset(self.w, ds) + self.round_trip(ds, "gen")
        del ds
        end = time.perf_counter() + IO_WINDOW_S
        while time.perf_counter() < end or len(self.samples["round_trip_s"]) % 2:
            failures += self.round_trip(self.ds)
        for _ in range(self.w.gen_runs - 1):
            again = self.timed("gen_s", None, generate, self.w, self.seed)
            if not all(_same_bits(a, b) for a, b in zip(snapshots(again),
                                                         snapshots(self.ds))):
                failures.append("a repeated generation gives other snapshots")
        return failures

    def fit(self, dec, dyn, cfg) -> list:
        ds, out_dir = self.ds, self.workdir / "model"
        with self.stage("train"):
            t0 = time.perf_counter()
            model = training.train(ds, dec, dyn, cfg, out_dir=out_dir)
            took = time.perf_counter() - t0
        path = out_dir / "model.pdrm"
        self.model = self.timed("load_model_s", "forecast", data.load_model, path)
        end = time.perf_counter() + IO_WINDOW_S
        while time.perf_counter() < end:
            self.timed("load_model_s", None, data.load_model, path)
        n_snap = len(ds.train) * (ds.t_train + 1)
        self.metrics["train_snapshots_per_s"] = n_snap * cfg.epochs / took
        h = model.history
        self.metrics["train_loss"] = float(
            cfg.lam * h["rec"][-1] + (1.0 - cfg.lam) * h["dyn"][-1]
        )
        failures, self.shape_changes = check_model(model, self.model)
        return failures

    def predict(self, index, beta) -> list:
        ds, w = self.ds, self.w
        traj = ds.test[index]
        times = ds.snapshot_dt * np.arange(ds.t_test + 1)
        with self.stage("forecast"):
            t0 = time.perf_counter()
            pred = inference.forecast(self.model, ds.observed(traj)[0], ds.obs_coords,
                                      times, beta=beta)
            took = time.perf_counter() - t0
        self.metrics.setdefault("forecast_s_each", []).append(took)
        want = (len(times), ds.spec.grid.num_points, 1)
        if pred.shape != want:
            return [f"forecast shape {pred.shape} != {want}"]
        if not np.isfinite(pred).all():
            return ["forecast has non-finite values"]
        errors = losses.field_rnmse(pred, traj.snapshots).data  # one per time
        ic = float(errors[0])
        self.metrics.setdefault("ic_rnmse_each", []).append(ic)
        self.metrics.setdefault("horizon_rnmse_each", []).append(float(np.median(errors)))
        if not ic < w.ic_ceiling:
            return [f"ic_rnmse {ic:.4g} is not under the ceiling {w.ic_ceiling}"]
        return []

    def run(self, dec, dyn, cfg):
        w = self.w
        ok = self.op("gen", self.gen)
        ok = ok and self.op("train", lambda: self.fit(dec, dyn, cfg))
        if self.ds is not None:
            cases = forecast_cases(w, self.ds, self.seed)
        else:
            cases = [(i, None) for i in range(w.n_forecasts)]
        for i, (index, beta) in enumerate(cases):
            name = f"forecast[{i}]"
            if not ok:
                self.ops[name] = ["skipped: an operation it depends on failed"]
                continue
            self.op(name, lambda: self.predict(index, beta))
        s = self.samples
        if s["gen_s"] and s["round_trip_s"] and s["load_model_s"]:
            self.metrics["gen_s"] = float(np.median(s["gen_s"]))
            pairs = np.reshape(s["round_trip_s"], (-1, 2)).mean(axis=1)
            self.metrics["io_s"] = float(np.median(pairs) + np.median(s["load_model_s"]))
        self.metrics["samples"] = s


def environment() -> dict:
    """What the figures depend on: cores, BLAS build and threads, versions."""
    import ctypes
    import glob
    import platform

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                threads = int(fn())
                break
    return {
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": threads,
        "blas_thread_env": {v: os.environ.get(v) for v in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="working directory for this round")
    p.add_argument("--trace", action="store_true", help="record per-layer spans")
    p.add_argument("--setup-only", action="store_true",
                   help="stop after set-up (used to sample set-up time)")
    args = p.parse_args(argv)

    w = WORKLOADS[args.workload]
    spec = data.burgers_spec() if w.pde == "burgers" else data.diffusion_spec()
    dec, dyn = configs(w, spec)
    cfg = TrainingConfig(epochs=w.epochs, warmup_epochs=w.warmup_epochs,
                         batch_size=BATCH, seed=args.seed)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    print("ready", flush=True)
    if args.setup_only:
        print(json.dumps({"setup_only": True}))
        return 0

    workdir = Path(args.out)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        rnd = Round(w, args.seed, workdir, tracer)
        rnd.run(dec, dyn, cfg)
        result = {
            "workload": w.name,
            "seed": args.seed,
            "traced": args.trace,
            "ops": rnd.ops,
            "metrics": rnd.metrics,
            "shape_changes": rnd.shape_changes,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "environment": environment(),
        }
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = tracer.table()
            result["unhit"] = tracer.unhit(w)
            result["unreached"] = tracer.unreached(w)
            tracer.save(workdir.parent / f"spans-{w.name}-{args.seed}.npz")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
