"""Decoder and dynamics-network contracts."""

import numpy as np
import pytest

from pderom import diffmath as dm
from pderom.diffmath import backward, constant
from pderom.losses import _batched_jacobian_siren
from pderom.networks import (
    DecoderConfig,
    DynamicsConfig,
    affine_decomposition,
    decode,
    dynamics_eval,
    grid_decoder,
    init_decoder,
    init_dynamics,
)

from helpers import code_jacobian, fd_check_params

SIREN = DecoderConfig("siren", latent_dim=3, layers=2, width=16, coord_dim=2,
                      out_channels=2, coord_lo=(0.0, 0.0), coord_hi=(1.0, 1.0))
HYPER = DecoderConfig("hyper", latent_dim=4, layers=2, width=12, coord_dim=2,
                      out_channels=1, coord_lo=(-1.0, -1.0), coord_hi=(1.0, 1.0))


@pytest.mark.parametrize("hi", [(1.0, 0.0), (-1.0, 1.0)])
def test_config_rejects_an_empty_coordinate_range(hi):
    with pytest.raises(ValueError, match="coord_hi"):
        DecoderConfig("hyper", 4, 2, 12, 2, coord_lo=(0.0, 0.0), coord_hi=hi)


def reference_siren(params, config, alpha, X):
    """Straightforward numpy re-implementation of the sine decoder."""
    xn = config.normalize(X)
    z = np.concatenate([xn, np.broadcast_to(alpha, (xn.shape[0], alpha.size))], axis=1)
    for i in range(config.layers):
        z = np.sin(config.omega0 * (z @ params[f"l{i}.W"].data + params[f"l{i}.b"].data))
    return z @ params["out.W"].data + params["out.b"].data


def reference_hyper(params, config, alpha, X):
    """Straightforward numpy re-implementation of the modulated decoder."""
    xn = config.normalize(X)
    z = xn
    for i in range(config.layers):
        phase = xn @ params[f"l{i}.freq"].data.T
        trig = np.concatenate([np.cos(phase), np.sin(phase)], axis=1)
        pre = z @ params[f"l{i}.W"].data + params[f"l{i}.b"].data + alpha @ params[f"l{i}.Wm"].data
        z = pre * trig
    return z @ params["out.W"].data + params["out.b"].data + alpha @ params["out.Wm"].data


@pytest.fixture(params=["siren", "hyper"], ids=["siren", "hyper"])
def setup(request):
    config = SIREN if request.param == "siren" else HYPER
    params = init_decoder(config, seed=7)
    rng = np.random.default_rng(21)
    X = rng.uniform(0.0 if request.param == "siren" else -1.0, 1.0, size=(17, 2))
    alpha = rng.normal(size=config.latent_dim) * 0.4
    return config, params, X, alpha


class TestDecode:
    def test_matches_reference_implementation(self, setup):
        config, params, X, alpha = setup
        ref = reference_siren if config.architecture == "siren" else reference_hyper
        out = decode(config, params, constant(alpha), X)
        np.testing.assert_allclose(out.data, ref(params, config, alpha, X), atol=1e-12)

    def test_permutation_equivariance(self, setup):
        config, params, X, alpha = setup
        perm = np.random.default_rng(3).permutation(len(X))
        out = decode(config, params, constant(alpha), X)
        out_p = decode(config, params, constant(alpha), X[perm])
        np.testing.assert_array_equal(out.data[perm], out_p.data)

    def test_union_of_grids_concatenates(self, setup):
        config, params, X, alpha = setup
        a, b = X[:9], X[9:]
        full = decode(config, params, constant(alpha), X).data
        parts = np.concatenate(
            [decode(config, params, constant(alpha), a).data,
             decode(config, params, constant(alpha), b).data], axis=0
        )
        np.testing.assert_array_equal(full, parts)

    def test_off_grid_coordinate_is_finite(self, setup):
        config, params, X, alpha = setup
        probe = np.array([[3.7, -2.9]])  # far outside the bounds
        out = decode(config, params, constant(alpha), probe)
        assert np.isfinite(out.data).all()

    def test_gradient_wrt_code_matches_fd(self, setup):
        config, params, X, alpha = setup

        def loss(p):
            return dm.sum_(decode(config, params, p["alpha"], X))

        assert fd_check_params(loss, {"alpha": constant(alpha)}, step=1e-6) <= 1e-6

    def test_gradient_wrt_params_matches_fd(self, setup):
        config, params, X, alpha = setup

        def loss(p):
            out = decode(config, p, constant(alpha), X)
            return dm.mean_(out * out)

        assert fd_check_params(loss, params) <= 1e-4

    def test_batched_matches_single(self, setup):
        config, params, X, alpha = setup
        rng = np.random.default_rng(5)
        batch = rng.normal(size=(4, config.latent_dim)) * 0.3
        out = decode(config, params, constant(batch), X)
        for i in range(4):
            single = decode(config, params, constant(batch[i]), X)
            np.testing.assert_allclose(out.data[i], single.data, atol=1e-12)

    def test_coordinate_dimension_mismatch(self, setup):
        config, params, X, alpha = setup
        with pytest.raises(ValueError, match="coordinates have dimension"):
            decode(config, params, constant(alpha), np.zeros((5, 3)))

    def test_fast_mode_matches_exact_to_rounding(self, setup):
        config, params, X, alpha = setup
        exact = decode(config, params, constant(alpha), X).data
        fast = decode(config, params, constant(alpha), X, fast=True).data
        np.testing.assert_allclose(fast, exact, rtol=1e-13, atol=1e-13)


class TestGridDecoder:
    @pytest.mark.parametrize("fast", [False, True], ids=["exact", "fast"])
    def test_matches_decode(self, setup, fast):
        config, params, X, alpha = setup
        batch = np.random.default_rng(4).normal(size=(3, config.latent_dim)) * 0.4
        predict = grid_decoder(config, params, X, fast)
        for code in (alpha, batch):
            got = predict(constant(code)).data
            want = decode(config, params, constant(code), X, fast=fast).data
            assert got.shape == want.shape
            if config.architecture == "siren":
                np.testing.assert_array_equal(got, want)
            else:
                # the affine map sums the layers in another order
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_code_dimension_mismatch(self, setup):
        config, params, X, _ = setup
        with pytest.raises(ValueError, match="latent code has dimension"):
            grid_decoder(config, params, X)(constant(np.zeros(config.latent_dim + 1)))


class TestHyperLayer:
    def test_zero_latent_removes_modulation(self):
        params = init_decoder(HYPER, seed=1)
        X = np.random.default_rng(0).uniform(-1, 1, size=(11, 2))
        alpha = np.zeros(HYPER.latent_dim)
        out = decode(HYPER, params, constant(alpha), X).data
        stripped = {k: v for k, v in params.items()}
        for key in list(stripped):
            if key.endswith(".Wm"):
                stripped[key] = constant(np.zeros_like(stripped[key].data))
        out_ref = decode(HYPER, stripped, constant(np.ones(HYPER.latent_dim)), X).data
        np.testing.assert_allclose(out, out_ref, atol=1e-13)

    def test_zero_frequency_modulation_vector(self):
        # freq = 0 makes the cos half 1 and the sin half 0
        params = init_decoder(HYPER, seed=2)
        patched = dict(params)
        patched["l0.freq"] = constant(np.zeros_like(params["l0.freq"].data))
        X = np.random.default_rng(1).uniform(-1, 1, size=(7, 2))
        alpha = np.random.default_rng(2).normal(size=HYPER.latent_dim)
        out = decode(HYPER, patched, constant(alpha), X).data

        def ref(params_np):
            xn = HYPER.normalize(X)
            z = xn
            half = HYPER.width // 2
            for i in range(HYPER.layers):
                phase = xn @ params_np[f"l{i}.freq"].T
                trig = np.concatenate([np.cos(phase), np.sin(phase)], axis=1)
                if i == 0:
                    trig = np.concatenate(
                        [np.ones((len(xn), half)), np.zeros((len(xn), half))], axis=1
                    )
                pre = z @ params_np[f"l{i}.W"] + params_np[f"l{i}.b"] + alpha @ params_np[f"l{i}.Wm"]
                z = pre * trig
            return z @ params_np["out.W"] + params_np["out.b"] + alpha @ params_np["out.Wm"]

        np.testing.assert_allclose(out, ref({k: v.data for k, v in params.items()
                                             if k != "l0.freq"} | {"l0.freq": np.zeros_like(params["l0.freq"].data)}),
                                   atol=1e-13)

    def test_odd_width_rejected(self):
        with pytest.raises(ValueError, match="even"):
            DecoderConfig("hyper", 4, 2, 13, 2)


class TestSiren:
    def test_zero_weights_give_zero_hidden(self):
        config = DecoderConfig("siren", latent_dim=2, layers=1, width=8, coord_dim=1)
        params = init_decoder(config, seed=0)
        params["l0.W"] = constant(np.zeros_like(params["l0.W"].data))
        params["l0.b"] = constant(np.zeros_like(params["l0.b"].data))
        X = np.linspace(0, 1, 5)[:, None]
        out = decode(config, params, constant(np.array([0.3, -0.7])), X)
        np.testing.assert_allclose(
            out.data, np.broadcast_to(params["out.b"].data, (5, 1)), atol=1e-15
        )

    def test_sine_oddness(self):
        config = DecoderConfig("siren", latent_dim=2, layers=1, width=8, coord_dim=1)
        params = init_decoder(config, seed=3)
        params["l0.b"] = constant(np.zeros_like(params["l0.b"].data))
        X = np.array([[0.4]])
        alpha = np.array([0.5, -0.2])
        flipped = {k: (constant(-v.data) if k == "l0.W" else v) for k, v in params.items()}
        h = decode(config, {**params, "out.b": constant(np.zeros(1))}, constant(alpha), X).data
        h_f = decode(config, {**flipped, "out.b": constant(np.zeros(1))}, constant(-alpha * 0 + alpha), X).data
        # flipping the first-layer pre-activation flips every hidden sine
        np.testing.assert_allclose(h_f, -h, atol=1e-14)

    def test_initial_output_scale(self):
        config = DecoderConfig("siren", latent_dim=4, layers=3, width=32, coord_dim=2,
                               coord_lo=(0, 0), coord_hi=(1, 1))
        rng = np.random.default_rng(11)
        outs = []
        for seed in range(8):
            params = init_decoder(config, seed=seed)
            X = rng.uniform(0, 1, size=(300, 2))
            alpha = rng.uniform(-1, 1, size=4)
            outs.append(decode(config, params, constant(alpha), X).data)
        std = np.concatenate(outs).std()
        assert 0.3 <= std <= 1.5


class TestInit:
    @pytest.mark.parametrize("config", [SIREN, HYPER])
    def test_same_seed_identical(self, config):
        a = init_decoder(config, seed=42)
        b = init_decoder(config, seed=42)
        assert all(np.array_equal(a[k].data, b[k].data) for k in a)

    @pytest.mark.parametrize("config", [SIREN, HYPER])
    def test_different_seed_differs(self, config):
        a = init_decoder(config, seed=1)
        b = init_decoder(config, seed=2)
        assert any(not np.array_equal(a[k].data, b[k].data) for k in a)


class TestJacobian:
    @pytest.mark.parametrize("arch", ["siren", "hyper"])
    def test_forward_agrees_with_reverse_rows(self, arch):
        config = SIREN if arch == "siren" else HYPER
        params = init_decoder(config, seed=9)
        rng = np.random.default_rng(8)
        X = rng.uniform(-0.5, 0.5, size=(6, 2))
        alpha = rng.normal(size=config.latent_dim) * 0.3
        J = code_jacobian(config, params, constant(alpha), X).data

        n = J.shape[0]
        for row in range(n):
            leaf = dm.parameter(alpha)
            out = decode(config, params, leaf, X)
            flat = dm.reshape(out, (n,))
            target = dm.sum_(dm.mul(flat, constant(np.eye(n)[row])))
            (g,) = backward(target, [leaf])
            np.testing.assert_allclose(J[row], g, atol=1e-10)

    def test_batched_siren_jacobian_agrees_with_reverse_rows(self):
        # per-snapshot coordinates (B, n, d), as the training loss draws them
        params = init_decoder(SIREN, seed=9)
        rng = np.random.default_rng(10)
        codes = rng.normal(size=(3, SIREN.latent_dim)) * 0.3
        coords = rng.uniform(0.0, 1.0, size=(3, 5, 2))
        J = _batched_jacobian_siren(SIREN, params, constant(codes), coords).data
        nm = 5 * SIREN.out_channels
        assert J.shape == (3, nm, SIREN.latent_dim)
        for b in range(3):
            for row in range(nm):
                leaf = dm.parameter(codes[b])
                flat = dm.reshape(decode(SIREN, params, leaf, coords[b]), (nm,))
                (g,) = backward(dm.sum_(dm.mul(flat, constant(np.eye(nm)[row]))), [leaf])
                np.testing.assert_allclose(J[b, row], g, atol=1e-10)

    @pytest.mark.parametrize("arch", ["siren", "hyper"])
    def test_jacobian_differentiable_in_reverse(self, arch):
        # forward-over-reverse: d sum(J * J) against finite differences,
        # over the parameters and, for siren, the code (hyper's J is constant in it)
        config = DecoderConfig(arch, latent_dim=3, layers=2, width=8, coord_dim=2,
                               omega0=3.0, coord_lo=(0.0, 0.0), coord_hi=(1.0, 1.0))
        rng = np.random.default_rng(13)
        X = rng.uniform(0.0, 1.0, size=(7, 2))
        params = init_decoder(config, seed=14)
        alpha = constant(rng.normal(size=3) * 0.3)
        if arch == "siren":
            params["alpha"] = alpha

        def loss(p):
            J = code_jacobian(config, p, p.get("alpha", alpha), X)
            return dm.sum_(dm.mul(J, J))

        assert fd_check_params(loss, params) <= 1e-5

    def test_affine_decomposition_matches_decode(self):
        params = init_decoder(HYPER, seed=4)
        rng = np.random.default_rng(12)
        X = rng.uniform(-1, 1, size=(9, 2))
        A, c = affine_decomposition(HYPER, params, X)
        batch = rng.normal(size=(5, HYPER.latent_dim))
        via_affine = batch @ A.data + c.data
        direct = decode(HYPER, params, constant(batch), X).data.reshape(5, -1)
        np.testing.assert_allclose(via_affine, direct, atol=1e-12)
        # and the affine matrix is exactly the Jacobian at any code
        J = code_jacobian(HYPER, params, constant(batch[0]), X).data
        np.testing.assert_allclose(A.data.T, J, atol=1e-12)

    def test_affine_rejected_for_siren(self):
        params = init_decoder(SIREN, seed=4)
        with pytest.raises(ValueError, match="hyper"):
            affine_decomposition(SIREN, params, np.zeros((4, 2)))


class TestDynamics:
    def test_zero_network_rate(self):
        config = DynamicsConfig(latent_dim=3, layers=2, width=8)
        params = init_dynamics(config, seed=0)
        zeroed = {k: constant(np.zeros_like(v.data)) for k, v in params.items()}
        for alpha in np.random.default_rng(0).normal(size=(4, 3)):
            out = dynamics_eval(config, zeroed, constant(alpha))
            np.testing.assert_array_equal(out.data, np.zeros(3))

    def test_swish_zero_fixed_point(self):
        # x * sigmoid(x * softplus(w)) vanishes at x = 0 for any w
        for omega in (-2.0, 0.0, 1.0, 5.0):
            x = dm.constant(np.zeros(4))
            gate = dm.sigmoid(dm.mul(x, dm.softplus(constant(np.array(omega)))))
            np.testing.assert_array_equal(dm.mul(x, gate).data, np.zeros(4))

    def test_matches_reference_formula(self):
        config = DynamicsConfig(latent_dim=3, layers=2, width=8, param_dim=2)
        params = init_dynamics(config, seed=5)
        rng = np.random.default_rng(6)
        alpha = rng.normal(size=3)
        beta = rng.normal(size=2)
        out = dynamics_eval(config, params, constant(alpha), constant(beta)).data

        def softplus(v):
            return np.logaddexp(0.0, v)

        def sigmoid(v):
            return 1.0 / (1.0 + np.exp(-v))

        p = {k: v.data for k, v in params.items()}
        bstar = beta @ p["beta.W"] + p["beta.b"]
        z = np.concatenate([alpha, bstar])
        for i in range(2):
            lin = z @ p[f"l{i}.W"] + p[f"l{i}.b"]
            z = lin * sigmoid(lin * softplus(p[f"l{i}.omega"]))
        ref = z @ p["out.W"] + p["out.b"]
        np.testing.assert_allclose(out, ref, atol=1e-13)

    def test_beta_contract(self):
        plain = DynamicsConfig(latent_dim=2, layers=1, width=4)
        with pytest.raises(ValueError, match="beta"):
            dynamics_eval(plain, init_dynamics(plain, 0), constant(np.zeros(2)),
                          constant(np.zeros(1)))
        cond = DynamicsConfig(latent_dim=2, layers=1, width=4, param_dim=1)
        with pytest.raises(ValueError, match="beta"):
            dynamics_eval(cond, init_dynamics(cond, 0), constant(np.zeros(2)))

    def test_deterministic_and_time_free(self):
        config = DynamicsConfig(latent_dim=3, layers=2, width=8)
        params = init_dynamics(config, seed=1)
        alpha = constant(np.array([0.1, -0.4, 0.9]))
        a = dynamics_eval(config, params, alpha).data
        b = dynamics_eval(config, params, alpha).data
        np.testing.assert_array_equal(a, b)
