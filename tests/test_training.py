"""Training runs: bitwise reruns, checkpoints, located failures, and the optimizer."""

import logging
import re

import numpy as np
import pytest

from pderom import data, training
from pderom.diffmath import NonFiniteError, Tensor
from pderom.networks import DecoderConfig, DynamicsConfig
from pderom.training import TrainingConfig, adamw_init, adamw_step, decays_weight, lr_at, train

from helpers import adamw_steps

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


# the optimizer values stall the schedule or the update, or grow the weights
@pytest.mark.parametrize("field,value", [("epochs", 0), ("decay_every", 0),
                                         ("checkpoint_every", 0), ("warmup_epochs", -1),
                                         ("decay_rate", 0.0),
                                         ("weight_decay", -1e-4), ("lr0", np.nan),
                                         ("lr0", np.inf), ("weight_decay", np.nan)])
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


def test_latent_dims_must_agree_before_the_first_batch(tiny, monkeypatch):
    monkeypatch.setattr("pderom.training.batch_terms", None)  # no batch may run
    dyn = DynamicsConfig(latent_dim=4, layers=1, width=8)
    with pytest.raises(ValueError, match="decoder latent_dim = 3, but dynamics latent_dim = 4"):
        train(tiny, DEC, dyn, TrainingConfig(epochs=1, warmup_epochs=0))


@pytest.mark.parametrize("arch", ["hyper", "siren"])
def test_first_step_trains_every_parameter(tiny, monkeypatch, arch):
    grads = []
    step = training.adamw_step
    monkeypatch.setattr(training, "adamw_step",
                        lambda params, g, *a: grads.append(g) or step(params, g, *a))
    dec = DecoderConfig(arch, latent_dim=3, layers=2, width=8, coord_dim=2,
                        coord_lo=(-20.0, -20.0), coord_hi=(20.0, 20.0))
    train(tiny, dec, DYN, TrainingConfig(epochs=1, warmup_epochs=0, batch_size=32))
    assert len(grads) == 1  # 26 snapshots make one batch
    networks = [name for name in grads[0] if name != "latents"]
    assert {name[:4] for name in networks} == {"dec.", "dyn."}
    # the latent table starts at zero, so the dynamics network's first layer
    # sees zero input and its weight gradient (input^T times cotangent) is zero
    assert [name for name in networks if not grads[0][name].any()] == ["dyn.l0.W"]


def test_gamma_must_keep_k_grid_points(tiny):
    cfg = TrainingConfig(epochs=1, warmup_epochs=0, gamma=1e-3)  # 1 of 1764 points
    with pytest.raises(ValueError, match="keeps 1 grid points, fewer than k = 3"):
        train(tiny, DEC, DYN, cfg)


@pytest.mark.parametrize("weight_decay", [0.0, 1e-4])
def test_adamw_step_matches_a_plain_numpy_reference(weight_decay):
    rng = np.random.default_rng(0)
    shapes = {"l0.W": (3, 4), "l0.Wm": (2, 3), "l0.b": (4,), "l0.freq": (), "latents": (5, 2)}
    start = {k: rng.normal(size=s) for k, s in shapes.items()}
    grads = [{k: rng.normal(size=s) for k, s in shapes.items()} for _ in range(3)]
    lr = 0.01

    params = {k: Tensor(v, requires_grad=True) for k, v in start.items()}
    state = adamw_init(params)
    for g in grads:
        params, state = adamw_step(params, g, state, lr, weight_decay)
    assert state.step == 3
    want = adamw_steps(start, grads, lr, weight_decay, decayed={"l0.W", "l0.Wm"})
    for k in shapes:
        assert params[k].requires_grad, k
        assert params[k].data.tobytes() == want[k].tobytes(), k

    # the decay moves exactly the matrices
    plain = adamw_steps(start, grads, lr, 0.0, decayed=())
    moved = {k for k in shapes if want[k].tobytes() != plain[k].tobytes()}
    assert moved == ({"l0.W", "l0.Wm"} if weight_decay else set())


def test_adamw_step_rejects_a_gradient_of_another_shape():
    params = {"l0.W": Tensor(np.zeros((2, 3)), requires_grad=True)}
    with pytest.raises(ValueError, match=r"gradient shape \(3, 2\) != parameter shape"):
        adamw_step(params, {"l0.W": np.zeros((3, 2))}, adamw_init(params), 0.01, 0.0)


def test_lr_at_steps_down_every_decay_every_epochs():
    cfg = TrainingConfig(epochs=1, warmup_epochs=0, lr0=0.01, decay_rate=0.5, decay_every=7)
    assert [lr_at(e, cfg) for e in (0, 6, 7, 21)] == [0.01, 0.01, 0.005, 0.00125]
    with pytest.raises(ValueError, match="epoch must be >= 0"):
        lr_at(-1, cfg)


def test_decays_weight_selects_the_matrices():
    names = ("l0.W", "l0.Wm", "l0.b", "l0.freq", "latents")
    assert [decays_weight(n) for n in names] == [True, True, False, False, False]
    assert decays_weight("dec.l2.W") and not decays_weight("dyn.l2.b")
