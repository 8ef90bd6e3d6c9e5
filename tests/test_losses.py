"""Loss terms, hyper-reduction, and end-to-end differentiation."""

from contextlib import nullcontext

import numpy as np
import pytest

from pderom import diffmath as dm
from pderom.diffmath import Tensor, backward, constant, no_grad, qr_lstsq, stop_gradient
from pderom.losses import (
    DegenerateNormError,
    ReducedSample,
    batch_terms,
    compute_alpha_dot_star,
    draw_subset,
    dynamics_loss,
    field_rnmse,
    latent_rnmse,
    reconstruction_loss,
    total_loss,
)
from pderom.networks import (
    DecoderConfig,
    DynamicsConfig,
    decode,
    decode_jacobian,
    dynamics_eval,
    init_decoder,
    init_dynamics,
)
from pderom.solvers import Grid, SolverSpec, time_derivative

from helpers import fd_check_params, normal_equations_lstsq

DIFF_GRID = Grid((-20.0, -20.0), (20.0, 20.0), (42, 42))
DIFF_SPEC = SolverSpec("diffusion2d", DIFF_GRID, 0.1, {"kappa": 2.0})
HYPER = DecoderConfig("hyper", latent_dim=4, layers=2, width=12, coord_dim=2,
                      coord_lo=(-20.0, -20.0), coord_hi=(20.0, 20.0))

BURG_GRID = Grid((0.0,), (100.0,), (32,))
BURG_SPEC = SolverSpec("burgers1d", BURG_GRID, 0.02, {"mu": 0.02})
SIREN = DecoderConfig("siren", latent_dim=2, layers=1, width=16, coord_dim=1,
                      coord_lo=(0.0,), coord_hi=(100.0,))


class TestFieldRnmse:
    def test_exact_match_is_zero(self):
        u = np.random.default_rng(0).normal(size=(30, 2))
        assert field_rnmse(constant(u), u).data == 0.0

    def test_double_is_one(self):
        u = np.random.default_rng(1).normal(size=(30, 2))
        assert field_rnmse(constant(2 * u), u).data == pytest.approx(1.0, abs=1e-14)

    def test_sign_flip_is_two(self):
        u = np.random.default_rng(2).normal(size=(30, 1))
        assert field_rnmse(constant(-u), u).data == pytest.approx(2.0, abs=1e-14)

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        u = rng.normal(size=(25, 3))
        v = rng.normal(size=(25, 3))
        base = field_rnmse(constant(v), u).data
        for c in (0.01, -7.0, 1e6):
            scaled = field_rnmse(constant(c * v), c * u).data
            np.testing.assert_allclose(scaled, base, rtol=1e-12)

    def test_zero_norm_label_guard(self):
        u = np.zeros((10, 1))
        with pytest.raises(DegenerateNormError, match="channel"):
            field_rnmse(constant(np.ones((10, 1))), u)

    def test_batched_rows(self):
        rng = np.random.default_rng(4)
        u = rng.normal(size=(5, 20, 2))
        out = field_rnmse(constant(2 * u), u)
        np.testing.assert_allclose(out.data, np.ones(5), atol=1e-14)


class TestLatentRnmse:
    def test_equal_vectors_zero(self):
        v = np.array([1.0, -2.0, 0.5])
        assert latent_rnmse(constant(v), constant(v)).data == 0.0

    def test_zero_prediction_is_one(self):
        v = np.array([3.0, 4.0])
        assert latent_rnmse(constant(np.zeros(2)), constant(v)).data == pytest.approx(1.0)

    def test_gradient_wrt_prediction(self):
        rng = np.random.default_rng(5)
        p0 = rng.normal(size=4)
        t = rng.normal(size=4)

        def loss(params):
            return latent_rnmse(params["p"], constant(t))

        _, grads = dm.grad(loss, {"p": constant(p0)})
        expected = (p0 - t) / (np.linalg.norm(p0 - t) * np.linalg.norm(t))
        np.testing.assert_allclose(grads["p"].data, expected, rtol=1e-12)
        assert fd_check_params(loss, {"p": constant(p0)}) <= 1e-6

    def test_denominator_detached(self):
        rng = np.random.default_rng(6)
        p = rng.normal(size=3)
        t0 = rng.normal(size=3)

        def loss(params):
            return latent_rnmse(constant(p), params["t"])

        _, grads = dm.grad(loss, {"t": constant(t0)})
        expected = -(p - t0) / (np.linalg.norm(p - t0) * np.linalg.norm(t0))
        np.testing.assert_allclose(grads["t"].data, expected, rtol=1e-12)

    def test_zero_target_guard(self):
        with pytest.raises(DegenerateNormError):
            latent_rnmse(constant(np.ones(3)), constant(np.zeros(3)))


class TestReconstructionLoss:
    def test_memorized_snapshot_is_zero(self):
        params = init_decoder(HYPER, seed=0)
        X = DIFF_GRID.coords()[:50]
        alpha = constant(np.random.default_rng(0).normal(size=4))
        label = decode(HYPER, params, alpha, X).data
        assert reconstruction_loss(HYPER, params, alpha, label, X).data == 0.0

    def test_subgrid_evaluation_finite(self):
        params = init_decoder(HYPER, seed=1)
        rng = np.random.default_rng(1)
        X = DIFF_GRID.coords()
        sub = rng.choice(len(X), size=37, replace=False)
        label = rng.normal(size=(37, 1)) + 2.0
        out = reconstruction_loss(HYPER, params, constant(rng.normal(size=4)),
                                  label, X[sub])
        assert np.isfinite(out.data)

    def test_linear_decoder_minimizer_is_projection(self):
        # against the closed-form least-squares projection B (B^T B)^-1 B^T u
        rng = np.random.default_rng(7)
        B = rng.normal(size=(40, 3))
        u = rng.normal(size=(40, 1))
        alpha_star = normal_equations_lstsq(B, u.ravel())

        def loss(params):
            pred = dm.matmul(constant(B), dm.reshape(params["alpha"], (3, 1)))
            return field_rnmse(pred, u)

        # gradient vanishes at the projection
        _, grads = dm.grad(loss, {"alpha": constant(alpha_star)})
        assert np.abs(grads["alpha"].data).max() <= 1e-10
        # and plain gradient descent from zero converges to it
        alpha = np.zeros(3)
        for _ in range(800):
            _, g = dm.grad(loss, {"alpha": constant(alpha)})
            alpha = alpha - 0.5 * g["alpha"].data
        np.testing.assert_allclose(alpha, alpha_star, atol=1e-4)


class TestAlphaDotStar:
    def test_matches_normal_equations_full_sampling(self):
        params = init_decoder(HYPER, seed=2)
        rng = np.random.default_rng(8)
        alpha = constant(rng.normal(size=4) * 0.5)
        subset = draw_subset(rng, DIFF_GRID.num_points, 1.0)
        target = compute_alpha_dot_star(HYPER, params, alpha, DIFF_SPEC, subset)

        # independent oracle: dense Jacobian and rate, normal equations
        X = DIFF_GRID.coords()
        J = decode_jacobian(HYPER, params, alpha, X).data
        u_hat = decode(HYPER, params, alpha, X).data.reshape(42, 42)
        rate = time_derivative(DIFF_SPEC, constant(u_hat)).data.reshape(-1)
        expected = normal_equations_lstsq(J[subset.indices], rate[subset.indices])
        np.testing.assert_allclose(target.data, expected, atol=1e-8)

    def test_normal_equation_residual_invariant(self):
        params = init_decoder(HYPER, seed=3)
        rng = np.random.default_rng(9)
        alpha = constant(rng.normal(size=4) * 0.5)
        subset = draw_subset(rng, DIFF_GRID.num_points, 1.0)
        x = compute_alpha_dot_star(HYPER, params, alpha, DIFF_SPEC, subset).data
        X = DIFF_GRID.coords()
        J = decode_jacobian(HYPER, params, alpha, X).data[subset.indices]
        u_hat = decode(HYPER, params, alpha, X).data.reshape(42, 42)
        rate = time_derivative(DIFF_SPEC, constant(u_hat)).data.reshape(-1)[subset.indices]
        assert np.linalg.norm(J.T @ (rate - J @ x)) <= 1e-8 * np.linalg.norm(J.T @ rate)

    def test_zero_rate_gives_zero_target(self):
        # a stationary reconstruction enters the projection as a zero rate
        params = init_decoder(HYPER, seed=4)
        alpha = constant(np.random.default_rng(10).normal(size=4))
        X = DIFF_GRID.coords()[:80]
        J = decode_jacobian(HYPER, params, alpha, X)
        out = qr_lstsq(J, constant(np.zeros(80)))
        np.testing.assert_array_equal(out.data, np.zeros(4))

    def test_subsampling_robustness(self):
        params = init_decoder(HYPER, seed=5)
        rng = np.random.default_rng(11)
        alpha = constant(rng.normal(size=4) * 0.5)
        full = compute_alpha_dot_star(
            HYPER, params, alpha, DIFF_SPEC, draw_subset(rng, DIFF_GRID.num_points, 1.0)
        ).data
        near = compute_alpha_dot_star(
            HYPER, params, alpha, DIFF_SPEC, draw_subset(rng, DIFF_GRID.num_points, 0.999)
        ).data
        assert np.linalg.norm(full - near) <= 0.05 * np.linalg.norm(full)

    def test_subset_validation(self):
        with pytest.raises(ValueError, match="unique"):
            ReducedSample(np.array([1, 1, 2]))
        params = init_decoder(HYPER, seed=6)
        with pytest.raises(ValueError, match="cannot determine"):
            compute_alpha_dot_star(
                HYPER, params, constant(np.zeros(4)), DIFF_SPEC,
                ReducedSample(np.array([0, 1, 2])),
            )


class TestDynamicsLoss:
    def _setup(self):
        dec_params = init_decoder(SIREN, seed=0)
        dyn_config = DynamicsConfig(latent_dim=2, layers=1, width=8, param_dim=1)
        dyn_params = init_dynamics(dyn_config, seed=0)
        alpha = constant(np.random.default_rng(1).normal(size=2) * 0.3)
        beta = np.array([0.02])
        return dec_params, dyn_config, dyn_params, alpha, beta

    def test_hardwired_network_zero_loss(self):
        dec_params, dyn_config, dyn_params, alpha, beta = self._setup()
        subset = draw_subset(np.random.default_rng(42), 32, 0.5)
        target = compute_alpha_dot_star(
            SIREN, dec_params, alpha, BURG_SPEC, subset, beta=constant(beta)
        )
        rigged = {k: constant(np.zeros_like(v.data)) for k, v in dyn_params.items()}
        rigged["out.b"] = constant(target.data.copy())
        loss = dynamics_loss(
            SIREN, dec_params, dyn_config, rigged, alpha, BURG_SPEC,
            gamma=0.5, rng=np.random.default_rng(42), beta=constant(beta),
        )
        assert loss.data == 0.0

    def test_gradient_reaches_dynamics_params(self):
        dec_params, dyn_config, dyn_params, alpha, beta = self._setup()

        def loss(p):
            return dynamics_loss(
                SIREN, dec_params, dyn_config, p, alpha, BURG_SPEC,
                gamma=0.5, rng=np.random.default_rng(3), beta=constant(beta),
            )

        _, grads = dm.grad(loss, dyn_params)
        assert any(np.abs(g.data).max() > 0 for g in grads.values())

    def test_fixed_rng_bitwise_reproducible(self):
        dec_params, dyn_config, dyn_params, alpha, beta = self._setup()

        def run():
            return dynamics_loss(
                SIREN, dec_params, dyn_config, dyn_params, alpha, BURG_SPEC,
                gamma=0.5, rng=np.random.default_rng(7), beta=constant(beta),
            ).data

        assert run() == run()

    def test_two_draws_generally_differ(self):
        dec_params, dyn_config, dyn_params, alpha, beta = self._setup()
        rng = np.random.default_rng(5)
        values = {
            dynamics_loss(
                SIREN, dec_params, dyn_config, dyn_params, alpha, BURG_SPEC,
                gamma=0.25, rng=rng, beta=constant(beta),
            ).data.item()
            for _ in range(4)
        }
        assert len(values) > 1


class TestTotalLoss:
    def _pieces(self):
        dec_params = init_decoder(SIREN, seed=1)
        dyn_config = DynamicsConfig(latent_dim=2, layers=1, width=8, param_dim=1)
        dyn_params = init_dynamics(dyn_config, seed=1)
        rng = np.random.default_rng(2)
        alpha = constant(rng.normal(size=2) * 0.3)
        snapshot = 1.0 + 0.1 * rng.random((32, 1))
        beta = constant(np.array([0.02]))
        return dec_params, dyn_config, dyn_params, alpha, snapshot, beta

    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
    def test_weighting(self, lam):
        dec_params, dyn_config, dyn_params, alpha, snapshot, beta = self._pieces()
        X = BURG_GRID.coords()
        kwargs = dict(beta=beta)
        rec = reconstruction_loss(SIREN, dec_params, alpha, snapshot, X).data
        dyn = dynamics_loss(
            SIREN, dec_params, dyn_config, dyn_params, alpha, BURG_SPEC,
            0.5, np.random.default_rng(11), **kwargs,
        ).data
        tot = total_loss(
            SIREN, dec_params, dyn_config, dyn_params, alpha, snapshot, X,
            BURG_SPEC, lam, 0.5, np.random.default_rng(11), **kwargs,
        ).data
        np.testing.assert_allclose(tot, lam * rec + (1 - lam) * dyn, rtol=1e-12)

    def test_end_to_end_gradient_matches_fd(self):
        # Differentiates through decoder, solver, Jacobian, QR, and both
        # normalized losses at once, certifying the whole training chain.
        # The dynamics loss holds its denominator ||target|| fixed by
        # construction (gradient stopping), so the finite-difference
        # oracle is taken on the loss with that denominator frozen at the
        # base point - the exact function reverse mode differentiates.
        dec_params, dyn_config, dyn_params, alpha, snapshot, beta = self._pieces()
        params = {f"dec.{k}": v for k, v in dec_params.items()}
        params.update({f"dyn.{k}": v for k, v in dyn_params.items()})
        params["alpha"] = alpha
        subset = draw_subset(np.random.default_rng(123), 32, 0.5)
        c0 = float(np.linalg.norm(compute_alpha_dot_star(
            SIREN, dec_params, alpha, BURG_SPEC, subset, beta=beta
        ).data))

        def frozen(p):
            dec = {k[4:]: v for k, v in p.items() if k.startswith("dec.")}
            dyn = {k[4:]: v for k, v in p.items() if k.startswith("dyn.")}
            rec = reconstruction_loss(SIREN, dec, p["alpha"], snapshot,
                                      BURG_GRID.coords())
            target = compute_alpha_dot_star(SIREN, dec, p["alpha"], BURG_SPEC,
                                            subset, beta=beta)
            pred = dynamics_eval(dyn_config, dyn, p["alpha"], beta)
            dyn_term = dm.div(dm.norm2(dm.sub(pred, target), axis=-1), constant(c0))
            return dm.add(dm.mul(rec, 0.5), dm.mul(dyn_term, 0.5))

        def shipped(p):
            dec = {k[4:]: v for k, v in p.items() if k.startswith("dec.")}
            dyn = {k[4:]: v for k, v in p.items() if k.startswith("dyn.")}
            return total_loss(
                SIREN, dec, dyn_config, dyn, p["alpha"], snapshot,
                BURG_GRID.coords(), BURG_SPEC, 0.5, 0.5,
                np.random.default_rng(123), beta=beta,
            )

        # stop-gradient semantics: both losses have the same reverse-mode
        # gradient at the base point, bit for bit
        _, g_ship = dm.grad(shipped, params)
        _, g_froz = dm.grad(frozen, params)
        for key in params:
            np.testing.assert_array_equal(g_ship[key].data, g_froz[key].data)
        assert fd_check_params(frozen, params) <= 1e-4


class TestBatchTerms:
    @pytest.mark.parametrize("arch", ["hyper", "siren"])
    @pytest.mark.parametrize("warmup", [False, True])
    def test_matches_per_snapshot_ops(self, arch, warmup):
        # values and gradients (codes, decoder, dynamics network) of both
        # terms equal the mean of the per-snapshot reference losses
        rng = np.random.default_rng(31)
        if arch == "hyper":
            dec_config, spec = HYPER, DIFF_SPEC
            beta_b = None
        else:
            dec_config, spec = SIREN, BURG_SPEC
            beta_b = rng.uniform(0.015, 0.03, size=(3, 1))
        k = dec_config.latent_dim
        dyn_config = DynamicsConfig(latent_dim=k, layers=2, width=8,
                                    param_dim=0 if beta_b is None else 1)
        leaves = lambda ps: {n: Tensor(v.data, requires_grad=True) for n, v in ps.items()}
        dec_params = leaves(init_decoder(dec_config, seed=3))
        dyn_params = leaves(init_dynamics(dyn_config, seed=3))

        n = spec.grid.num_points
        alpha_np = rng.normal(size=(3, k)) * 0.4
        snapshots = 1.0 + rng.random((3, n, 1))
        n_sub = int(0.5 * n)
        subset_idx = np.stack([
            rng.choice(n, size=n_sub, replace=False) for _ in range(3)
        ])

        alpha_b = Tensor(alpha_np, requires_grad=True)
        batch = batch_terms(
            dec_config, dec_params, dyn_config, dyn_params,
            alpha_b, snapshots, spec, subset_idx,
            beta_b=beta_b, warmup=warmup,
        )

        alphas = [Tensor(a, requires_grad=True) for a in alpha_np]
        recs, dyns = [], []
        for i, alpha in enumerate(alphas):
            beta = None if beta_b is None else constant(beta_b[i])
            recs.append(reconstruction_loss(
                dec_config, dec_params, alpha, snapshots[i], spec.grid.coords()
            ))
            # warm-up: the dynamics term trains the dynamics network alone
            with no_grad() if warmup else nullcontext():
                target = compute_alpha_dot_star(
                    dec_config, dec_params, alpha, spec,
                    ReducedSample(subset_idx[i]), beta=beta,
                )
            alpha_in = stop_gradient(alpha) if warmup else alpha
            pred = dynamics_eval(dyn_config, dyn_params, alpha_in, beta)
            dyns.append(latent_rnmse(pred, target))
        params = [*dec_params.values(), *dyn_params.values()]
        for got, terms in zip(batch, (recs, dyns)):
            want = dm.mul(dm.add(dm.add(terms[0], terms[1]), terms[2]), 1.0 / 3.0)
            np.testing.assert_allclose(got.data, want.data, rtol=1e-9)
            g_got = backward(got, [alpha_b, *params])
            g_want = backward(want, [*alphas, *params])
            g_want = [np.stack(g_want[:3]), *g_want[3:]]
            for a, b in zip(g_got, g_want):
                np.testing.assert_allclose(a, b, rtol=1e-9,
                                           atol=1e-12 * max(np.abs(b).max(), 1.0))

    def test_warmup_routes_gradients(self):
        rng = np.random.default_rng(33)
        dec_params = init_decoder(HYPER, seed=5)
        dyn_config = DynamicsConfig(latent_dim=4, layers=1, width=8)
        dyn_params = init_dynamics(dyn_config, seed=5)
        alpha = Tensor(rng.normal(size=(2, 4)) * 0.3, requires_grad=True)
        dec_leaves = {k: Tensor(v.data, requires_grad=True) for k, v in dec_params.items()}
        dyn_leaves = {k: Tensor(v.data, requires_grad=True) for k, v in dyn_params.items()}
        snaps = 1.0 + rng.random((2, DIFF_GRID.num_points, 1))
        idx = np.stack([rng.choice(DIFF_GRID.num_points, size=200, replace=False)
                        for _ in range(2)])

        _, dyn = batch_terms(HYPER, dec_leaves, dyn_config, dyn_leaves,
                             alpha, snaps, DIFF_SPEC, idx, warmup=True)
        wrt = [alpha, *dec_leaves.values(), *dyn_leaves.values()]
        grads = backward(dyn, wrt)
        assert np.abs(grads[0]).max() == 0.0  # codes untouched by warm-up dynamics
        n_dec = len(dec_leaves)
        assert all(np.abs(g).max() == 0.0 for g in grads[1:1 + n_dec])
        assert any(np.abs(g).max() > 0.0 for g in grads[1 + n_dec:])

    def test_full_phase_reaches_decoder(self):
        rng = np.random.default_rng(34)
        dec_params = init_decoder(HYPER, seed=6)
        dyn_config = DynamicsConfig(latent_dim=4, layers=1, width=8)
        dyn_params = init_dynamics(dyn_config, seed=6)
        alpha = Tensor(rng.normal(size=(2, 4)) * 0.3, requires_grad=True)
        dec_leaves = {k: Tensor(v.data, requires_grad=True) for k, v in dec_params.items()}
        snaps = 1.0 + rng.random((2, DIFF_GRID.num_points, 1))
        idx = np.stack([rng.choice(DIFF_GRID.num_points, size=200, replace=False)
                        for _ in range(2)])
        _, dyn = batch_terms(HYPER, dec_leaves, dyn_config, dyn_params,
                             alpha, snaps, DIFF_SPEC, idx, warmup=False)
        grads = backward(dyn, [alpha, dec_leaves["l0.W"]])
        assert np.abs(grads[0]).max() > 0
        assert np.abs(grads[1]).max() > 0

    def test_sparse_observation_gather(self):
        rng = np.random.default_rng(35)
        dec_params = init_decoder(HYPER, seed=7)
        dyn_config = DynamicsConfig(latent_dim=4, layers=1, width=8)
        dyn_params = init_dynamics(dyn_config, seed=7)
        obs = rng.choice(DIFF_GRID.num_points, size=170, replace=False)
        alpha_np = rng.normal(size=(2, 4)) * 0.3
        snaps_full = 1.0 + rng.random((2, DIFF_GRID.num_points, 1))
        idx = np.stack([rng.choice(DIFF_GRID.num_points, size=200, replace=False)
                        for _ in range(2)])
        rec_b, _ = batch_terms(HYPER, dec_params, dyn_config, dyn_params,
                               constant(alpha_np), snaps_full[:, obs], DIFF_SPEC,
                               idx, obs_indices=obs)
        expected = np.mean([
            reconstruction_loss(HYPER, dec_params, constant(alpha_np[i]),
                                snaps_full[i, obs], DIFF_GRID.coords()[obs]).data
            for i in range(2)
        ])
        np.testing.assert_allclose(rec_b.data, expected, rtol=1e-9)
