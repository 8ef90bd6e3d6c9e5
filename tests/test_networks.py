"""Decoder and dynamics-network contracts."""

import re

import numpy as np
import pytest

from pderom import diffmath as dm
from pderom import networks
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
from pderom.solvers import Grid

from helpers import (
    code_jacobian,
    fd_check_params,
    hyper_tangents_forward,
    parameter,
    siren_tangents_forward,
)

SIREN = DecoderConfig("siren", latent_dim=3, layers=2, width=16, coord_dim=2,
                      coord_lo=(0.0, 0.0), coord_hi=(1.0, 1.0))
HYPER = DecoderConfig("hyper", latent_dim=4, layers=2, width=12, coord_dim=2,
                      coord_lo=(-1.0, -1.0), coord_hi=(1.0, 1.0))


@pytest.mark.parametrize("hi", [(1.0, 0.0), (-1.0, 1.0), (np.nan, 1.0), (1.0, np.inf)])
def test_config_rejects_an_empty_coordinate_range(hi):
    with pytest.raises(ValueError, match="coord_hi"):
        DecoderConfig("hyper", 4, 2, 12, 2, coord_lo=(0.0, 0.0), coord_hi=hi)


@pytest.mark.parametrize("field,value", [("width", 64.0), ("latent_dim", True),
                                         ("coord_dim", 2.5)])
def test_decoder_config_rejects_non_integer_counts(field, value):
    kwargs = dict(architecture="hyper", latent_dim=4, layers=2, width=12, coord_dim=2)
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        DecoderConfig(**{**kwargs, field: value})


@pytest.mark.parametrize("field,value", [("layers", True), ("width", 8.0),
                                         ("param_dim", 1.5)])
def test_dynamics_config_rejects_non_integer_counts(field, value):
    kwargs = dict(latent_dim=4, layers=2, width=8)
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        DynamicsConfig(**{**kwargs, field: value})


def library_jacobian(config, params, alpha, X):
    """(N, k) code Jacobian from the library: the transposed ``A`` of
    the affine map for hyper, ``decode`` of a ``DualBatch`` for siren."""
    if config.architecture == "hyper":
        return dm.transpose(affine_decomposition(config, params, X)[0])
    k = config.latent_dim
    out = decode(config, params, dm.DualBatch(dm.as_tensor(alpha), constant(np.eye(k))), X)
    return dm.transpose(dm.reshape(out.tangent, (k, -1)))


def tangent_config(arch, layers):
    """A decoder with k = 5 for the forward-mode comparisons."""
    return DecoderConfig(arch, latent_dim=5, layers=layers, width=12, coord_dim=2,
                         coord_lo=(0.0, 0.0), coord_hi=(1.0, 1.0))


def check_siren_tangents_match_forward_mode(draw, layers, batched_grid, K, fast):
    """``decode`` of a ``DualBatch`` against the forward-mode reference:
    values bitwise, tangents within 1e-13 relative."""
    # K = 5 is the code dimension, so K runs below, at and above k
    config = tangent_config("siren", layers)
    params = init_decoder(config, seed=draw + 10 * layers)
    rng = np.random.default_rng(K)
    B, n = 3, 9
    X = rng.uniform(0.0, 1.0, size=(B, n, 2) if batched_grid else (n, 2))
    code_shapes = [(B, 5)] if batched_grid else [(5,), (B, 5)]
    for shape in code_shapes:
        alpha = constant(rng.normal(size=shape) * 0.4)
        T = constant(rng.normal(size=(K, *shape)))
        out = decode(config, params, dm.DualBatch(alpha, T), X, fast=fast)
        u, dU = siren_tangents_forward(config, params, alpha, T, X, fast=fast)
        assert out.value.data.tobytes() == u.data.tobytes()
        assert out.tangent.shape == dU.shape == (K, *shape[:-1], n, 1)
        err = np.abs(out.tangent.data - dU.data).max() / np.abs(dU.data).max()
        assert err <= 1e-13


def affine_product(codes, A, c, fast):
    """``codes @ A + c`` in numpy: one gemm in fast mode, else one
    (1, k) x (k, 1) product per (code, point) pair."""
    if fast:
        return np.atleast_2d(codes) @ A + c
    return np.matmul(codes[..., None, None, :], A.T[..., None])[..., 0, 0] + c


def reference_siren(params, config, alpha, X):
    """Straightforward numpy re-implementation of the sine decoder."""
    xn = config.normalize(X)
    z = np.concatenate([xn, np.broadcast_to(alpha, (xn.shape[0], alpha.size))], axis=1)
    for i in range(config.layers):
        z = np.sin(networks.OMEGA0 * (z @ params[f"l{i}.W"].data + params[f"l{i}.b"].data))
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
            return dm.mean_(dm.mul(out, out))

        assert fd_check_params(loss, params) <= 1e-4

    def test_batched_matches_single(self, setup):
        config, params, X, alpha = setup
        rng = np.random.default_rng(5)
        batch = rng.normal(size=(4, config.latent_dim)) * 0.3
        out = decode(config, params, constant(batch), X)
        for i in range(4):
            single = decode(config, params, constant(batch[i]), X)
            np.testing.assert_array_equal(out.data[i], single.data)

    def test_coordinate_dimension_mismatch(self, setup):
        config, params, X, alpha = setup
        with pytest.raises(ValueError, match="coordinates have dimension"):
            decode(config, params, constant(alpha), np.zeros((5, 3)))

    # per-snapshot grids go to the siren alone: a hyper decoder takes one
    # grid (test_hyper_decode_takes_one_grid) and no DualBatch
    @pytest.mark.parametrize("setup,code_shape,dual", [
        pytest.param("siren", shape, dual, id=f"siren-{sid}-{'dual' if dual else 'plain'}")
        for dual in (False, True)
        for shape, sid in (((3,), "3"), ((1,), "1"), ((), "single"))], indirect=["setup"])
    def test_code_batch_must_match_per_snapshot_grids(self, setup, code_shape, dual):
        config, params, X, _ = setup
        k = config.latent_dim
        alpha = constant(np.zeros((*code_shape, k)))
        if dual:
            alpha = dm.DualBatch(alpha, constant(np.ones((2, *code_shape, k))))
        grids = X[:10].reshape(2, 5, 2)
        shapes = rf"\({', '.join(map(str, (*code_shape, k)))},?\).*\(2, 5, 2\)"
        with pytest.raises(ValueError, match=shapes):
            decode(config, params, alpha, grids)

    @pytest.mark.parametrize("code_shape", [(2, 4), (4,)], ids=["batch", "single"])
    def test_hyper_decode_takes_one_grid(self, code_shape):
        # the affine map belongs to one grid, so per-snapshot grids raise
        params = init_decoder(HYPER, seed=4)
        grids = np.zeros((2, 5, 2))
        with pytest.raises(ValueError, match=r"one grid of shape \(N, 2\).*\(2, 5, 2\)"):
            decode(HYPER, params, constant(np.zeros(code_shape)), grids)
        with pytest.raises(ValueError, match=r"one grid of shape \(N, 2\).*\(2, 5, 2\)"):
            grid_decoder(HYPER, params, grids)

    @pytest.mark.parametrize("arch", ["siren", "hyper"])
    def test_each_point_alone_matches_full_grid_at_benchmark_size(self, arch):
        # the benchmark's decoder (k 8, 3 layers of 64) on 2-D coordinates
        config = DecoderConfig(arch, latent_dim=8, layers=3, width=64, coord_dim=2,
                               coord_lo=(-20.0, -20.0), coord_hi=(20.0, 20.0))
        params = init_decoder(config, seed=2)
        rng = np.random.default_rng(6)
        X = rng.uniform(-20.0, 20.0, size=(60, 2))
        codes = constant(rng.normal(size=(2, 8)) * 0.5)
        full = decode(config, params, codes, X).data
        for i in range(len(X)):
            alone = decode(config, params, codes, X[i:i + 1]).data
            np.testing.assert_array_equal(alone, full[:, i:i + 1])

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
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("setup", ["siren"], indirect=True)
    def test_rows_equal_the_full_decode_gathered(self, setup):
        # exact mode: rows are evaluated independently, so the chosen
        # rows equal the full decode's, bit for bit
        config, params, X, alpha = setup
        rng = np.random.default_rng(5)
        batch = rng.normal(size=(3, config.latent_dim)) * 0.4
        predict = grid_decoder(config, params, X)
        rows = rng.integers(0, len(X), size=(3, 9))  # repeats allowed
        full = predict(constant(batch)).data
        got = predict(constant(batch), rows).data
        assert got.shape == (3, 9, 1)
        assert got.tobytes() == np.take_along_axis(full, rows[..., None], axis=1).tobytes()
        one = predict(constant(alpha), rows[0]).data
        assert one.tobytes() == predict(constant(alpha)).data[rows[0]].tobytes()

    @pytest.mark.parametrize("setup", ["siren"], indirect=True)
    @pytest.mark.parametrize("code_shape,rows_shape", [((3,), (2, 5)), ((2, 3), (5,)),
                                                       ((2, 3), (3, 5))])
    def test_rows_of_the_wrong_shape_raise(self, setup, code_shape, rows_shape):
        config, params, X, _ = setup
        code = np.zeros((*code_shape[:-1], config.latent_dim))
        with pytest.raises(ValueError, match=f"rows of shape {re.escape(str(rows_shape))}"
                                             f".*codes of shape {re.escape(str(code.shape))}"):
            grid_decoder(config, params, X)(constant(code), np.zeros(rows_shape, int))

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
        J = library_jacobian(config, params, constant(alpha), X).data

        n = J.shape[0]
        for row in range(n):
            leaf = parameter(alpha)
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
        assert J.shape == (3, 5, SIREN.latent_dim)
        for b in range(3):
            for row in range(5):
                leaf = parameter(codes[b])
                flat = dm.reshape(decode(SIREN, params, leaf, coords[b]), (5,))
                (g,) = backward(dm.sum_(dm.mul(flat, constant(np.eye(5)[row]))), [leaf])
                np.testing.assert_allclose(J[b, row], g, atol=1e-10)

    @pytest.mark.parametrize("arch", ["siren", "hyper"])
    def test_jacobian_differentiable_in_reverse(self, arch, monkeypatch):
        # J differentiated in reverse: d sum(J * J) against finite differences,
        # over the parameters and, for siren, the code (hyper's J is constant in it);
        # a siren at omega0 = 3 keeps the differences accurate
        monkeypatch.setattr(networks, "OMEGA0", 3.0)
        config = DecoderConfig(arch, latent_dim=3, layers=2, width=8, coord_dim=2,
                               coord_lo=(0.0, 0.0), coord_hi=(1.0, 1.0))
        rng = np.random.default_rng(13)
        X = rng.uniform(0.0, 1.0, size=(7, 2))
        params = init_decoder(config, seed=14)
        alpha = constant(rng.normal(size=3) * 0.3)
        if arch == "siren":
            params["alpha"] = alpha

        def loss(p):
            J = library_jacobian(config, p, p.get("alpha", alpha), X)
            return dm.sum_(dm.mul(J, J))

        assert fd_check_params(loss, params) <= 1e-5

    @pytest.mark.parametrize("fast", [False, True], ids=["exact", "fast"])
    @pytest.mark.parametrize("K", [1, 3, 5, 11])
    @pytest.mark.parametrize("batched_grid", [False, True], ids=["shared", "own"])
    @pytest.mark.parametrize("layers", [1, 3])
    @pytest.mark.parametrize("draw", [1, 2])  # two parameter draws per size
    def test_siren_tangents_match_forward_mode(self, draw, layers, batched_grid, K, fast):
        check_siren_tangents_match_forward_mode(draw, layers, batched_grid, K, fast)

    @pytest.mark.parametrize("batched_grid", [False, True], ids=["shared", "own"])
    def test_siren_tangent_rows_follow_a_permutation_of_the_points(self, batched_grid):
        # the row contract of decode, for the tangents: exact mode, bitwise
        params = init_decoder(SIREN, seed=5)
        rng = np.random.default_rng(17)
        B, n = 2, 11
        X = rng.uniform(0.0, 1.0, size=(B, n, 2) if batched_grid else (n, 2))
        perm = rng.permutation(n)
        dual = dm.DualBatch(constant(rng.normal(size=(B, 3)) * 0.4),
                            constant(rng.normal(size=(4, B, 3))))
        out = decode(SIREN, params, dual, X)
        out_p = decode(SIREN, params, dual, X[..., perm, :])
        assert out_p.value.data.tobytes() == out.value.data[:, perm].tobytes()
        assert out_p.tangent.data.tobytes() == out.tangent.data[:, :, perm].tobytes()

    @pytest.mark.parametrize("fast", [False, True], ids=["exact", "fast"])
    @pytest.mark.parametrize("K", [1, 3, 5, 11])
    @pytest.mark.parametrize("batched_grid", [False, True], ids=["shared", "own"])
    @pytest.mark.parametrize("layers", [1, 3])
    @pytest.mark.parametrize("draw", [1, 2])  # two parameter draws per size
    def test_hyper_tangents_match_forward_mode(self, draw, layers, batched_grid, K, fast):
        # A against the forward-mode tangents: along the k unit codes, and
        # as the map T @ A along K random directions (K = 5 is the code
        # dimension, so K runs below, at and above k), within 1e-13
        # relative; c is the zero code's value.  decode's value is bitwise
        # the map's product restated in numpy, and within 1e-13 relative
        # of the forward value.  An own grid per snapshot takes one map
        # each, and each snapshot decodes on its own grid.
        config = tangent_config("hyper", layers)
        params = init_decoder(config, seed=draw + 10 * layers)
        rng = np.random.default_rng(K)
        B, n = 3, 9
        X = rng.uniform(0.0, 1.0, size=(B, n, 2) if batched_grid else (n, 2))
        grids = list(X) if batched_grid else [X]
        maps = [affine_decomposition(config, params, Xb, fast=fast) for Xb in grids]
        for Xb, (A, c) in zip(grids, maps):
            u, dU = hyper_tangents_forward(config, params, constant(np.zeros(5)),
                                           constant(np.eye(5)), Xb, fast=fast)
            assert A.shape == (5, n) and c.shape == (n,)
            assert c.data.tobytes() == u.data.reshape(-1).tobytes()
            want = dU.data.reshape(5, n)
            assert np.abs(A.data - want).max() <= 1e-13 * np.abs(want).max()
        code_shapes = [(B, 5)] if batched_grid else [(5,), (B, 5)]
        for shape in code_shapes:
            alpha = rng.normal(size=shape) * 0.4
            T = rng.normal(size=(K, *shape))
            u, dU = hyper_tangents_forward(config, params, constant(alpha), constant(T), X,
                                           fast=fast)
            pairs = list(zip(alpha, grids, maps)) if batched_grid else [(alpha, X, maps[0])]
            got = np.stack([decode(config, params, constant(a), Xb, fast=fast).data
                            for a, Xb, _ in pairs]).reshape(u.shape)
            want = np.stack([affine_product(a, A.data, c.data, fast)
                             for a, _, (A, c) in pairs]).reshape(u.shape)
            assert got.tobytes() == want.tobytes()
            assert np.abs(got - u.data).max() <= 1e-13 * np.abs(u.data).max()
            if batched_grid:
                tangents = np.stack([T[:, b] @ A.data for b, (A, _) in enumerate(maps)], axis=1)
            else:
                tangents = T @ maps[0][0].data
            tangents = tangents.reshape(K, *shape[:-1], n, 1)
            assert dU.shape == tangents.shape
            assert np.abs(tangents - dU.data).max() <= 1e-13 * np.abs(dU.data).max()

    def test_hyper_decode_takes_no_dual_batch(self):
        params = init_decoder(HYPER, seed=4)
        dual = dm.DualBatch(constant(np.zeros(4)), constant(np.eye(4)))
        with pytest.raises(ValueError, match="affine_decomposition"):
            decode(HYPER, params, dual, np.zeros((5, 2)))

    def test_affine_decomposition_matches_decode(self):
        # against the layer-by-layer numpy reference: decode is the map
        rng = np.random.default_rng(12)
        X = rng.uniform(-1, 1, size=(9, 2))
        params = init_decoder(HYPER, seed=4)
        A, c = affine_decomposition(HYPER, params, X)
        assert A.shape == (4, 9) and c.shape == (9,)
        zero = reference_hyper(params, HYPER, np.zeros(4), X).reshape(-1)
        np.testing.assert_allclose(c.data, zero, rtol=0, atol=1e-12)
        batch = rng.normal(size=(5, 4))
        direct = np.stack([reference_hyper(params, HYPER, a, X).reshape(-1) for a in batch])
        np.testing.assert_allclose(batch @ A.data + c.data, direct, rtol=0, atol=1e-12)
        # and the affine matrix is the code Jacobian, at any code
        J = code_jacobian(HYPER, params, constant(batch[0]), X).data
        assert np.abs(A.data.T - J).max() <= 1e-13 * np.abs(J).max()

    def test_affine_map_rows_follow_a_subset_of_the_grid_at_benchmark_size(self):
        # the exact-mode row contract the hyper forecast decode relies on:
        # the benchmark's decoder on the diffusion grid, bitwise
        config = DecoderConfig("hyper", latent_dim=8, layers=3, width=64, coord_dim=2,
                               coord_lo=(-20.0, -20.0), coord_hi=(20.0, 20.0))
        params = init_decoder(config, seed=3)
        X = Grid((-20.0, -20.0), (20.0, 20.0), (42, 42)).coords()
        A, c = affine_decomposition(config, params, X)
        pick = np.random.default_rng(19).permutation(len(X))[:50]
        A_sub, c_sub = affine_decomposition(config, params, X[pick])
        assert A_sub.data.tobytes() == np.ascontiguousarray(A.data[:, pick]).tobytes()
        assert c_sub.data.tobytes() == c.data[pick].tobytes()

    def test_exact_product_values_follow_the_grid_and_the_batch_at_benchmark_size(self):
        # the benchmark's decoder on the diffusion grid with a forecast's
        # 201 codes: a subset of the grid, each code alone and the codes
        # reversed all give the full product's values, bitwise
        config = DecoderConfig("hyper", latent_dim=8, layers=3, width=64, coord_dim=2,
                               coord_lo=(-20.0, -20.0), coord_hi=(20.0, 20.0))
        params = init_decoder(config, seed=3)
        X = Grid((-20.0, -20.0), (20.0, 20.0), (42, 42)).coords()
        rng = np.random.default_rng(29)
        codes = rng.normal(size=(201, 8)) * 0.5
        predict = grid_decoder(config, params, X)
        full = predict(constant(codes)).data
        pick = rng.permutation(len(X))[:50]
        sub = grid_decoder(config, params, X[pick])(constant(codes)).data
        assert sub.tobytes() == np.ascontiguousarray(full[:, pick]).tobytes()
        for code, want in zip(codes, full):
            assert predict(constant(code)).data.tobytes() == want.tobytes()
        assert predict(constant(codes[::-1])).data.tobytes() == full[::-1].tobytes()

    def test_affine_decomposition_rejects_per_snapshot_grids(self):
        params = init_decoder(HYPER, seed=4)
        with pytest.raises(ValueError, match=r"\(N, 2\).*\(3, 5, 2\)"):
            affine_decomposition(HYPER, params, np.zeros((3, 5, 2)))

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

    @pytest.mark.parametrize("codes,betas", [((4, 2), (1,)), ((4, 2), (3, 1)),
                                             ((2,), (3, 1))])
    def test_beta_needs_one_row_per_code(self, codes, betas):
        config = DynamicsConfig(latent_dim=2, layers=1, width=4, param_dim=1)
        rows = (codes[0] if len(codes) == 2 else 1, betas[0] if len(betas) == 2 else 1)
        with pytest.raises(ValueError, match=rf"beta has {rows[1]} rows for {rows[0]} codes"):
            dynamics_eval(config, init_dynamics(config, 0), constant(np.zeros(codes)),
                          constant(np.zeros(betas)))

    @pytest.mark.parametrize("betas", [(), (2, 1, 1)], ids=["scalar", "3-d"])
    def test_beta_is_a_vector_or_one_row_per_code(self, betas):
        config = DynamicsConfig(latent_dim=2, layers=1, width=4, param_dim=1)
        with pytest.raises(ValueError, match=rf"beta must have shape \(p,\) or \(B, p\), "
                                             f"got {re.escape(str(betas))}"):
            dynamics_eval(config, init_dynamics(config, 0), constant(np.zeros((2, 2))),
                          constant(np.zeros(betas)))

    def test_deterministic_and_time_free(self):
        config = DynamicsConfig(latent_dim=3, layers=2, width=8)
        params = init_dynamics(config, seed=1)
        alpha = constant(np.array([0.1, -0.4, 0.9]))
        a = dynamics_eval(config, params, alpha).data
        b = dynamics_eval(config, params, alpha).data
        np.testing.assert_array_equal(a, b)
