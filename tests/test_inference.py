"""Inversion, latent integration and forecasting."""

import dataclasses
import re

import numpy as np
import pytest

from pderom import data, inference
from pderom.diffmath import NonFiniteError, constant
from pderom.inference import IntegratorConfig, InversionConfig, forecast, integrate, invert
from pderom.losses import field_rnmse
from pderom.networks import (
    DecoderConfig,
    DynamicsConfig,
    decode,
    dynamics_eval,
    init_decoder,
    init_dynamics,
)
from pderom.training import TrainingConfig, train

from helpers import expm

HYPER = DecoderConfig("hyper", latent_dim=3, layers=1, width=8, coord_dim=1,
                      coord_lo=(0.0,), coord_hi=(1.0,))


def test_non_finite_field_names_the_inversion_step():
    params = {k: v.data for k, v in init_decoder(HYPER, seed=0).items()}
    params["out.b"] = np.full_like(params["out.b"], 1e308)  # squares overflow
    X = np.linspace(0.0, 1.0, 20)[:, None]
    with np.errstate(over="ignore"), \
            pytest.raises(NonFiniteError, match=r"\(inversion step 0\)") as err:
        invert(HYPER, params, np.ones((20, 1)), X, InversionConfig(steps=3))
    assert err.value.op == "mul"


@pytest.mark.parametrize("shape,at,where", [
    ((20, 1), (7, 0), "row 7, channel 0"),
    ((20, 2), (3, 1), "row 3, channel 1"),
    ((3, 20, 1), (1, 12, 0), "row 12, channel 0 of field 1"),
], ids=["field", "channel", "batch"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_u0_is_rejected_before_the_grid_is_bound(monkeypatch, shape, at, where,
                                                            value):
    def grid_decoder(*args, **kwargs):
        raise AssertionError("invert bound the grid before checking u0")

    monkeypatch.setattr(inference, "grid_decoder", grid_decoder)
    u0 = np.ones(shape)
    u0[at] = value
    u0[-1, -1] = np.nan  # a later bad value is not the one named
    with pytest.raises(ValueError, match=rf"non-finite value at {where}: {value}$"):
        invert(HYPER, {}, u0, np.linspace(0.0, 1.0, 20)[:, None])


@pytest.mark.parametrize("shape", [(20,), (1, 1, 20, 1)], ids=["1-d", "4-d"])
def test_invert_rejects_fields_of_other_ranks(shape):
    with pytest.raises(ValueError, match=rf"u0 must have shape \(N, m\) or \(B, N, m\), "
                                         rf"got {re.escape(str(shape))}"):
        invert(HYPER, {}, np.full(shape, np.nan), np.linspace(0.0, 1.0, 20)[:, None])


@pytest.mark.parametrize("steps", [10.5, 10.0, True])
def test_inversion_config_rejects_non_integer_steps(steps):
    with pytest.raises(ValueError, match="steps must be an integer"):
        InversionConfig(steps=steps)


@pytest.mark.parametrize("lr", [0.0, -1.0, np.nan, np.inf])
def test_inversion_config_rejects_non_positive_lr(lr):
    with pytest.raises(ValueError, match="lr must be positive"):
        InversionConfig(lr=lr)


@pytest.mark.parametrize("tol", [{"rtol": np.nan}, {"atol": np.nan}])
def test_integrator_config_rejects_non_positive_tolerances(tol):
    with pytest.raises(ValueError, match="tolerances must be positive"):
        IntegratorConfig(**tol)


@pytest.mark.parametrize("tol", [{"rtol": np.inf}, {"atol": np.inf}])
def test_integrator_config_rejects_infinite_tolerances(tol):
    with pytest.raises(ValueError, match="tolerances must be positive and finite"):
        IntegratorConfig(**tol)


@pytest.mark.parametrize("arch", ["hyper", "siren"])
def test_invert_recovers_a_known_code(arch):
    config = DecoderConfig(arch, latent_dim=3, layers=2, width=16, coord_dim=2,
                           coord_lo=(0.0, 0.0), coord_hi=(1.0, 1.0))
    params = {k: v.data for k, v in init_decoder(config, seed=4).items()}
    rng = np.random.default_rng(0)
    X = rng.uniform(0.0, 1.0, size=(60, 2))
    codes = rng.normal(size=(2, 3)) * 0.3
    fields = decode(config, params, constant(codes), X).data
    got, loss = invert(config, params, fields, X, InversionConfig(steps=500, lr=0.005))
    assert got.shape == codes.shape and loss.shape == (2,)
    assert (loss < 0.01).all()
    np.testing.assert_allclose(got, codes, atol=5e-3)
    np.testing.assert_allclose(
        loss, field_rnmse(decode(config, params, constant(got), X, fast=True), fields).data,
        rtol=1e-12)
    single, single_loss = invert(config, params, fields[1], X,
                                 InversionConfig(steps=500, lr=0.005))
    assert single.shape == (3,) and single_loss < 0.01


def test_integrate_matches_a_linear_ode():
    # omega = -1000 makes softplus exactly 0, so every Swish gate is exactly
    # 0.5 and the network is the affine map d(alpha)/dt = alpha M + c
    config = DynamicsConfig(latent_dim=3, layers=2, width=6)
    params = {k: v.data for k, v in init_dynamics(config, seed=3).items()}
    for i in range(config.layers):
        params[f"l{i}.omega"] = np.array(-1000.0)
    params["out.W"] = params["out.W"] * 30.0  # rates of order one
    tparams = {k: constant(v) for k, v in params.items()}
    c = dynamics_eval(config, tparams, constant(np.zeros(3))).data
    M = dynamics_eval(config, tparams, constant(np.eye(3))).data - c
    probe = np.array([0.3, 0.7, -1.1])
    np.testing.assert_allclose(dynamics_eval(config, tparams, constant(probe)).data,
                               probe @ M + c, rtol=0, atol=1e-14)

    # closed form through the augmented generator acting on [alpha, 1]
    generator = np.zeros((4, 4))
    generator[:3, :3] = M.T
    generator[:3, 3] = c
    alpha0 = np.array([1.0, -0.5, 0.25])
    times = np.linspace(0.0, 3.0, 61)
    exact = np.stack([(expm(t * generator) @ np.append(alpha0, 1.0))[:3] for t in times])

    calls = []
    for rtol in (1e-3, 1e-5, 1e-7):
        integrator = IntegratorConfig(rtol=rtol, atol=rtol * 1e-2)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(inference, "dynamics_eval",
                       lambda *a, **k: calls.append(rtol) or dynamics_eval(*a, **k))
            got = integrate(config, params, alpha0, 0.0, times, integrator=integrator)
        scale = integrator.atol + integrator.rtol * np.abs(exact)
        # global error of a locally controlled pair: a fixed multiple of the
        # tolerance (at most about 15 on this growing mode)
        assert (np.abs(got - exact) / scale).max() < 50.0, rtol
    # at the loosest tolerance a step spans several targets, so the dense
    # output is checked inside steps, not only at their ends
    assert calls.count(1e-3) / 3 < (len(times) - 1) / 2


def test_integrate_from_a_target_at_t0_steps_to_the_next_target():
    config = DynamicsConfig(latent_dim=3, layers=2, width=6)
    params = {k: v.data for k, v in init_dynamics(config, seed=5).items()}
    alpha0 = np.array([0.4, -0.2, 0.9])
    times = 0.25 + 0.1 * np.arange(8)
    whole = integrate(config, params, alpha0, times[0], times)
    rest = integrate(config, params, alpha0, times[0], times[1:])
    assert whole.tobytes() == np.vstack([alpha0, rest]).tobytes()


def test_zero_network_integrates_to_constant_codes():
    # every rate is exactly zero, so is every error estimate
    config = DynamicsConfig(latent_dim=3, layers=2, width=6)
    params = {k: np.zeros_like(v.data) for k, v in init_dynamics(config, seed=5).items()}
    alpha0 = np.array([0.4, -0.2, 0.9])
    times = np.linspace(0.0, 10.0, 11)
    got = integrate(config, params, alpha0, 0.0, times)
    np.testing.assert_allclose(got, np.tile(alpha0, (len(times), 1)), rtol=1e-15, atol=0)


@pytest.mark.parametrize("alpha0", [np.zeros(5), np.zeros((2, 3)), np.zeros(())],
                         ids=["length", "batched", "scalar"])
def test_integrate_rejects_a_code_of_the_wrong_shape(alpha0):
    config = DynamicsConfig(latent_dim=3, layers=1, width=6)
    params = {k: v.data for k, v in init_dynamics(config, seed=5).items()}
    with pytest.raises(ValueError, match=r"alpha0 must have shape \(3,\), got "
                       + re.escape(str(alpha0.shape))):
        integrate(config, params, alpha0, 0.0, [0.0, 1.0])


@pytest.mark.parametrize("t0,targets,match", [
    (0.0, [0.0, np.nan], r"targets must be finite, got targets\[1\] = nan"),
    (0.0, [0.5, np.inf], r"targets must be finite, got targets\[1\] = inf"),
    (np.nan, [0.0, 1.0], "t0 must be finite, got nan"),
    (-np.inf, [0.0, 1.0], "t0 must be finite, got -inf"),
])
def test_integrate_rejects_non_finite_times(t0, targets, match):
    config = DynamicsConfig(latent_dim=4, layers=1, width=6)
    params = {k: v.data for k, v in init_dynamics(config, seed=5).items()}
    with pytest.raises(ValueError, match=match):
        integrate(config, params, np.zeros(4), t0, targets)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A dataset and, per architecture, a model and its saved file."""
    ds = data.gen_diffusion(1, seed=0, n_test=1, n_val=0)
    dyn = DynamicsConfig(latent_dim=3, layers=1, width=8)
    models = {}
    for arch in ("hyper", "siren"):
        dec = DecoderConfig(arch, latent_dim=3, layers=2, width=8, coord_dim=2,
                            coord_lo=(-20.0, -20.0), coord_hi=(20.0, 20.0))
        out_dir = tmp_path_factory.mktemp(arch)
        models[arch] = (train(ds, dec, dyn,
                              TrainingConfig(epochs=1, warmup_epochs=1, batch_size=8),
                              out_dir=out_dir),
                        out_dir / "model.pdrm")
    return ds, models


def _forecast(ds, model, n_times=12):
    traj = ds.test[0]
    times = ds.snapshot_dt * np.arange(n_times)
    return forecast(model, traj.snapshots[0], ds.obs_coords, times,
                    inversion=InversionConfig(steps=20))


@pytest.mark.parametrize("arch", ["hyper", "siren"])
def test_forecast_from_loaded_model_is_bitwise_equal(trained, arch):
    ds, models = trained
    model, path = models[arch]
    direct = _forecast(ds, model)
    assert direct.shape == (12, ds.spec.grid.num_points, 1)
    assert direct.tobytes() == _forecast(ds, data.load_model(path)).tobytes()


def test_blocked_siren_decode_is_bitwise_equal(trained, monkeypatch):
    ds, models = trained
    model = models["siren"][0]
    calls = []
    monkeypatch.setattr(inference, "decode",
                        lambda *a, **k: calls.append(a[2].shape[0]) or decode(*a, **k))
    whole = _forecast(ds, model)
    assert calls == [12]  # the default budget fits every time in one block
    per_time = ds.spec.grid.num_points * model.decoder_config.width
    monkeypatch.setattr(inference, "_DECODE_ELEMENTS", 5 * per_time)
    calls.clear()
    blocked = _forecast(ds, model)
    assert calls == [5, 5, 2]
    assert blocked.tobytes() == whole.tobytes()


@pytest.mark.parametrize("arch", ["hyper", "siren"])
def test_forecast_rejects_a_field_of_the_wrong_shape(trained, arch):
    ds, models = trained
    model = models[arch][0]
    u0 = ds.test[0].snapshots[0]  # (N, 1)
    want = re.escape(str(u0.shape))
    for bad in (np.stack([u0, u0]), u0[:-1], u0[:, 0]):
        with pytest.raises(ValueError, match=f"u0 must have shape {want}.*got "
                           + re.escape(str(bad.shape))):
            forecast(model, bad, ds.obs_coords, [0.0, ds.snapshot_dt])


def test_forecast_rejects_non_finite_times(trained):
    ds, models = trained
    with pytest.raises(ValueError, match=r"targets must be finite, got targets\[1\] = nan"):
        forecast(models["hyper"][0], ds.test[0].snapshots[0], ds.obs_coords,
                 [0.0, np.nan], inversion=InversionConfig(steps=1))


@pytest.mark.parametrize("times,match", [
    ([0.0, np.nan], r"targets must be finite, got targets\[1\] = nan"),
    ([np.nan, 1.0], "t0 must be finite, got nan"),
    ([0.0, 2.0, 1.0], "strictly increasing"),
    ([1.0, 0.5], "strictly increasing"),  # a time before the initial one
    ([], "non-empty"),
], ids=["nan", "nan-first", "unsorted", "before-t0", "empty"])
def test_forecast_checks_times_before_inverting(trained, monkeypatch, times, match):
    def invert(*args, **kwargs):
        raise AssertionError("forecast inverted before checking its times")

    monkeypatch.setattr(inference, "invert", invert)
    ds, models = trained
    with pytest.raises(ValueError, match=match):
        forecast(models["siren"][0], ds.test[0].snapshots[0], ds.obs_coords, times)


@pytest.mark.parametrize("param_dim,beta,match", [
    (1, None, "beta required"),
    (0, [0.02], "forbidden otherwise"),
    (1, [0.02, 0.03], "beta has dimension 2, expected 1"),
    (2, [[0.02, 1.0], [0.03, 1.0]], "beta has 2 rows for 1 codes"),
    (1, 0.02, r"beta must have shape \(p,\) or \(B, p\), got \(\)"),
], ids=["missing", "extra", "wrong-length", "two-rows", "scalar"])
def test_forecast_checks_beta_before_inverting(trained, monkeypatch, param_dim, beta, match):
    def invert(*args, **kwargs):
        raise AssertionError("forecast inverted before checking beta")

    monkeypatch.setattr(inference, "invert", invert)
    ds, models = trained
    model = models["hyper"][0]
    dyn = DynamicsConfig(latent_dim=3, layers=1, width=8, param_dim=param_dim)
    model = dataclasses.replace(model, dynamics_config=dyn, dynamics_params={
        k: v.data for k, v in init_dynamics(dyn, seed=0).items()})
    with pytest.raises(ValueError, match=match):
        forecast(model, ds.test[0].snapshots[0], ds.obs_coords, [0.0, 1.0], beta=beta)


@pytest.mark.parametrize("arch", ["hyper", "siren"])
@pytest.mark.parametrize("grid,match", [
    (np.zeros((10, 3)), r"query_grid must have shape \(N, 2\), got \(10, 3\)"),
    (np.zeros((2, 10, 2)), r"query_grid must have shape \(N, 2\), got \(2, 10, 2\)"),
    (np.zeros(10), r"query_grid must have shape \(N, 2\), got \(10,\)"),
    (np.array([[0.0, 1.0], [np.nan, 0.0]]), "query_grid must be finite"),
    (np.array([[0.0, np.inf]]), "query_grid must be finite"),
], ids=["3-columns", "3-d", "1-d", "nan", "inf"])
def test_forecast_checks_query_grid_before_inverting(trained, monkeypatch, arch, grid, match):
    def invert(*args, **kwargs):
        raise AssertionError("forecast inverted before checking its query grid")

    monkeypatch.setattr(inference, "invert", invert)
    ds, models = trained
    with pytest.raises(ValueError, match=match):
        forecast(models[arch][0], ds.test[0].snapshots[0], ds.obs_coords, [0.0, 1.0],
                 query_grid=grid)
