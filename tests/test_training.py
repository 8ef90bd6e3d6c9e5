"""Training runs: bitwise reruns, checkpoints, and located failures."""

import logging
import re

import numpy as np
import pytest

from pderom import data
from pderom.diffmath import NonFiniteError
from pderom.networks import DecoderConfig, DynamicsConfig
from pderom.training import TrainingConfig, train

DEC = DecoderConfig("hyper", latent_dim=3, layers=1, width=8, coord_dim=2,
                    coord_lo=(-20.0, -20.0), coord_hi=(20.0, 20.0))
DYN = DynamicsConfig(latent_dim=3, layers=1, width=8)


@pytest.fixture(scope="module")
def tiny():
    return data.gen_diffusion(1, seed=0, n_test=0, n_val=0)  # 26 training snapshots


def assert_same_model(a, b):
    for attr in ("decoder_config", "dynamics_config", "training_config", "spec",
                 "snapshot_dt"):
        assert getattr(a, attr) == getattr(b, attr), attr
    pairs = [("latents", a.latents, b.latents)]
    for group in ("decoder_params", "dynamics_params", "history"):
        x, y = getattr(a, group), getattr(b, group)
        assert sorted(x) == sorted(y), group
        pairs += [(f"{group}[{k}]", x[k], y[k]) for k in x]
    for what, x, y in pairs:
        assert (x.dtype, x.shape) == (y.dtype, y.shape), what
        assert x.tobytes() == y.tobytes(), what


def test_reruns_and_checkpoints_are_bitwise_equal(tmp_path, tiny):
    cfg = TrainingConfig(epochs=3, warmup_epochs=1, batch_size=8, seed=5,
                         checkpoint_every=2)
    first = train(tiny, DEC, DYN, cfg, out_dir=tmp_path / "a")
    second = train(tiny, DEC, DYN, cfg, out_dir=tmp_path / "b")
    assert_same_model(first, second)

    final = tmp_path / "a" / "model.pdrm"
    assert_same_model(first, data.load_model(final))
    checkpoints = sorted((tmp_path / "a").glob("checkpoint-*.pdrm"))
    assert [p.name for p in checkpoints] == ["checkpoint-000002.pdrm",
                                             "checkpoint-000003.pdrm"]
    assert checkpoints[-1].read_bytes() == final.read_bytes()
    assert (tmp_path / "b" / "model.pdrm").read_bytes() == final.read_bytes()


def test_logger_level_switches_the_epoch_log(tmp_path, tiny, caplog):
    cfg = TrainingConfig(epochs=3, warmup_epochs=1, batch_size=8)
    runs = {}
    for level in (logging.INFO, logging.WARNING):
        caplog.clear()
        with caplog.at_level(level, logger="pderom.training"):
            train(tiny, DEC, DYN, cfg, out_dir=tmp_path / str(level))
        runs[level] = [r.getMessage() for r in caplog.records if r.name == "pderom.training"]
    assert [m.split()[0] for m in runs[logging.INFO]] == ["epoch=0", "epoch=1", "epoch=2"]
    assert runs[logging.WARNING] == []
    assert ((tmp_path / str(logging.INFO) / "model.pdrm").read_bytes()
            == (tmp_path / str(logging.WARNING) / "model.pdrm").read_bytes())


def test_non_finite_snapshot_names_epoch_and_batch_rows(tiny):
    bad = tiny.train[0].snapshots.copy()
    bad[3, 100, 0] = np.inf  # snapshot row 3 of the table
    ds = data.Dataset(tiny.spec, tiny.snapshot_dt, tiny.t_train, tiny.t_test,
                      tiny.seed, train=[data.Trajectory(bad, tiny.train[0].beta)],
                      test=[])
    cfg = TrainingConfig(epochs=1, warmup_epochs=1, batch_size=8)
    with pytest.raises(NonFiniteError, match=r"\(epoch 0, batch rows \[") as err:
        train(ds, DEC, DYN, cfg)
    assert err.value.op == "sub"
    rows = [int(r) for r in re.search(r"batch rows \[([\d, ]+)\]", str(err.value))
            .group(1).split(",")]
    assert 3 in rows and len(rows) <= 8


# beta2 = 1 divides by zero in adamw_step's bias correction; the other
# optimizer values stall the schedule or the update, or grow the weights
@pytest.mark.parametrize("field,value", [("epochs", 0), ("decay_every", 0),
                                         ("checkpoint_every", 0), ("warmup_epochs", -1),
                                         ("decay_rate", 0.0),
                                         ("beta1", 1.0), ("beta2", 1.0), ("eps", 0.0),
                                         ("weight_decay", -1e-4), ("lr0", np.nan),
                                         ("lr0", np.inf), ("eps", np.nan),
                                         ("weight_decay", np.nan)])
def test_config_rejects_out_of_range_epoch_counts(field, value):
    with pytest.raises(ValueError, match=field):
        TrainingConfig(**{"epochs": 2, "warmup_epochs": 0, field: value})


@pytest.mark.parametrize("field,value", [("epochs", 2.5), ("batch_size", 32.0),
                                         ("warmup_epochs", True), ("seed", "0"),
                                         ("decay_every", np.float64(10.0))])
def test_config_rejects_non_integer_counts(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        TrainingConfig(**{"epochs": 2, "warmup_epochs": 0, field: value})


def test_config_accepts_numpy_integer_counts():
    cfg = TrainingConfig(epochs=np.int64(2), warmup_epochs=np.int32(1), seed=np.uint8(3))
    assert cfg.epochs == 2


@pytest.mark.parametrize("param_dim,beta", [(1, np.empty(0)), (0, np.array([0.02]))])
def test_param_dim_must_match_dataset_beta(tiny, param_dim, beta):
    ds = data.Dataset(tiny.spec, tiny.snapshot_dt, tiny.t_train, tiny.t_test, tiny.seed,
                      train=[data.Trajectory(tiny.train[0].snapshots, beta)], test=[])
    dyn = DynamicsConfig(latent_dim=3, layers=1, width=8, param_dim=param_dim)
    with pytest.raises(ValueError, match=rf"param_dim = {param_dim}, but the dataset's beta"):
        train(ds, DEC, dyn, TrainingConfig(epochs=1, warmup_epochs=0))


def test_gamma_must_keep_k_grid_points(tiny):
    cfg = TrainingConfig(epochs=1, warmup_epochs=0, gamma=1e-3)  # 1 of 1764 points
    with pytest.raises(ValueError, match="keeps 1 grid points, fewer than k = 3"):
        train(tiny, DEC, DYN, cfg)
