"""Loss terms, hyper-reduction, and end-to-end differentiation.

``batch_terms`` is the library's one definition of the loss.  It is
checked, values and gradients, against :func:`reference_terms`: the same
two terms for one snapshot, built from the public primitives alone.
"""

from contextlib import nullcontext

import numpy as np
import pytest

from pderom import diffmath as dm
from pderom import losses
from pderom.diffmath import Tensor, backward, constant, no_grad, qr_lstsq, stop_gradient
from pderom.losses import DegenerateNormError, batch_terms, field_rnmse, latent_rnmse
from pderom.networks import (
    DecoderConfig,
    DynamicsConfig,
    affine_decomposition,
    decode,
    dynamics_eval,
    init_decoder,
    init_dynamics,
)
from pderom.solvers import Grid, SolverSpec, time_derivative

from helpers import (
    code_jacobian,
    fd_check_params,
    grad,
    normal_equations_lstsq,
    projected_affine_rom,
    spy_trig,
)

DIFF_GRID = Grid((-20.0, -20.0), (20.0, 20.0), (42, 42))
DIFF_SPEC = SolverSpec("diffusion2d", DIFF_GRID, 0.1, {"kappa": 2.0})
HYPER = DecoderConfig("hyper", latent_dim=4, layers=2, width=12, coord_dim=2,
                      coord_lo=(-20.0, -20.0), coord_hi=(20.0, 20.0))

BURG_GRID = Grid((0.0,), (100.0,), (32,))
BURG_SPEC = SolverSpec("burgers1d", BURG_GRID, 0.02, {})
SIREN = DecoderConfig("siren", latent_dim=2, layers=1, width=16, coord_dim=1,
                      coord_lo=(0.0,), coord_hi=(100.0,))


def reference_target(dec_config, dec_params, alpha, spec, subset, beta=None):
    """alpha_dot*: the solver rate of the decoded field, projected by least
    squares onto the decoder Jacobian, both restricted to ``subset``."""
    X = spec.grid.coords()
    u = decode(dec_config, dec_params, alpha, X)
    rate = time_derivative(spec, dm.reshape(u, spec.grid.shape), beta)
    jac = code_jacobian(dec_config, dec_params, alpha, X[subset])
    return qr_lstsq(jac, dm.take_rows(dm.reshape(rate, (-1,)), subset))


def reference_terms(dec_config, dec_params, dyn_config, dyn_params, alpha, snapshot,
                    spec, subset, beta=None, warmup=False, denom=None, obs=None):
    """One snapshot's ``(rec, dyn)``; ``denom`` freezes ``||target||``.

    ``snapshot`` holds the field at the grid points ``obs`` (default: all).
    """
    X = spec.grid.coords()
    rec = field_rnmse(decode(dec_config, dec_params, alpha, X if obs is None else X[obs]),
                      snapshot)
    # warm-up: the dynamics term trains the dynamics network alone
    with no_grad() if warmup else nullcontext():
        target = reference_target(dec_config, dec_params, alpha, spec, subset, beta)
    pred = dynamics_eval(dyn_config, dyn_params, stop_gradient(alpha) if warmup else alpha, beta)
    if denom is None:
        return rec, latent_rnmse(pred, target)
    return rec, dm.div(dm.norm2(dm.sub(pred, target), axis=-1), constant(denom))


def rigged(dyn_params, rate):
    """Dynamics parameters whose network returns ``rate`` for every code."""
    out = {k: constant(np.zeros_like(v.data)) for k, v in dyn_params.items()}
    out["out.b"] = constant(np.array(rate, dtype=np.float64))
    return out


def projection(dec_config, dec_params, alpha, spec, subset):
    """Normal-equations oracle for alpha_dot* on ``subset``."""
    X = spec.grid.coords()
    J = code_jacobian(dec_config, dec_params, constant(alpha), X[subset]).data
    u_hat = decode(dec_config, dec_params, constant(alpha), X).data
    rate = time_derivative(spec, constant(u_hat.reshape(spec.grid.shape))).data
    return normal_equations_lstsq(J, rate.reshape(-1)[subset])


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
        with pytest.raises(DegenerateNormError, match=r"^label has near-zero norm"):
            field_rnmse(constant(np.ones((10, 1))), u)
        batch = np.ones((3, 10, 1))
        batch[1] = 0.0
        with pytest.raises(DegenerateNormError, match=r"^label at batch position 1 has"):
            field_rnmse(constant(np.ones((3, 10, 1))), batch)

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

        _, grads = grad(loss, {"p": constant(p0)})
        expected = (p0 - t) / (np.linalg.norm(p0 - t) * np.linalg.norm(t))
        np.testing.assert_allclose(grads["p"].data, expected, rtol=1e-12)
        assert fd_check_params(loss, {"p": constant(p0)}) <= 1e-6

    def test_denominator_detached(self):
        rng = np.random.default_rng(6)
        p = rng.normal(size=3)
        t0 = rng.normal(size=3)

        def loss(params):
            return latent_rnmse(constant(p), params["t"])

        _, grads = grad(loss, {"t": constant(t0)})
        expected = -(p - t0) / (np.linalg.norm(p - t0) * np.linalg.norm(t0))
        np.testing.assert_allclose(grads["t"].data, expected, rtol=1e-12)

    def test_zero_target_guard(self):
        with pytest.raises(DegenerateNormError):
            latent_rnmse(constant(np.ones(3)), constant(np.zeros(3)))


class TestReconstructionLoss:
    def test_memorized_snapshot_is_zero(self):
        params = init_decoder(HYPER, seed=0)
        dyn_config = DynamicsConfig(latent_dim=4, layers=1, width=8)
        alpha = np.random.default_rng(0).normal(size=(1, 4))
        obs = np.arange(50)
        label = decode(HYPER, params, constant(alpha), DIFF_GRID.coords()[obs]).data
        rec, _ = batch_terms(HYPER, params, dyn_config, init_dynamics(dyn_config, 0),
                             constant(alpha), label, DIFF_SPEC,
                             np.arange(DIFF_GRID.num_points)[None], obs_indices=obs)
        assert rec.data <= 1e-14

    def test_subgrid_evaluation_finite(self):
        params = init_decoder(HYPER, seed=1)
        dyn_config = DynamicsConfig(latent_dim=4, layers=1, width=8)
        rng = np.random.default_rng(1)
        n = DIFF_GRID.num_points
        obs = rng.choice(n, size=37, replace=False)
        label = rng.normal(size=(1, 37, 1)) + 2.0
        rec, _ = batch_terms(HYPER, params, dyn_config, init_dynamics(dyn_config, 1),
                             constant(rng.normal(size=(1, 4))), label, DIFF_SPEC,
                             rng.choice(n, size=(1, 200), replace=False), obs_indices=obs)
        assert np.isfinite(rec.data)

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
        _, grads = grad(loss, {"alpha": constant(alpha_star)})
        assert np.abs(grads["alpha"].data).max() <= 1e-10
        # and plain gradient descent from zero converges to it
        alpha = np.zeros(3)
        for _ in range(800):
            _, g = grad(loss, {"alpha": constant(alpha)})
            alpha = alpha - 0.5 * g["alpha"].data
        np.testing.assert_allclose(alpha, alpha_star, atol=1e-4)


class TestAlphaDotStar:
    """The target latent rate, read through ``batch_terms``: a dynamics
    network hard-wired to return ``x`` scores ``dyn = ||x - target|| /
    ||target||``."""

    def _dyn(self, dec_params, alpha, x, subset):
        dyn_config = DynamicsConfig(latent_dim=4, layers=1, width=8)
        snaps = 1.0 + np.zeros((1, DIFF_GRID.num_points, 1))
        _, dyn = batch_terms(HYPER, dec_params, dyn_config,
                             rigged(init_dynamics(dyn_config, 0), x),
                             constant(alpha[None]), snaps, DIFF_SPEC, subset[None])
        return float(dyn.data)

    def test_matches_normal_equations_full_sampling(self):
        params = init_decoder(HYPER, seed=2)
        rng = np.random.default_rng(8)
        alpha = rng.normal(size=4) * 0.5
        full = rng.permutation(DIFF_GRID.num_points)
        x = projection(HYPER, params, alpha, DIFF_SPEC, full)
        assert self._dyn(params, alpha, x, full) <= 1e-8

    def test_normal_equation_residual_invariant(self):
        # certifies the reference used below: siren, PDE parameter, half the grid
        params = init_decoder(SIREN, seed=3)
        rng = np.random.default_rng(9)
        alpha = constant(rng.normal(size=2) * 0.3)
        beta = constant(np.array([0.02]))
        subset = rng.choice(BURG_GRID.num_points, size=16, replace=False)
        x = reference_target(SIREN, params, alpha, BURG_SPEC, subset, beta).data
        X = BURG_GRID.coords()
        J = code_jacobian(SIREN, params, alpha, X[subset]).data
        u_hat = decode(SIREN, params, alpha, X).data.reshape(32)
        rate = time_derivative(BURG_SPEC, constant(u_hat), beta).data[subset]
        assert np.linalg.norm(J.T @ (rate - J @ x)) <= 1e-8 * np.linalg.norm(J.T @ rate)

    def test_zero_rate_gives_zero_target(self):
        # a stationary reconstruction enters the projection as a zero rate
        params = init_decoder(HYPER, seed=4)
        alpha = constant(np.random.default_rng(10).normal(size=4))
        J = code_jacobian(HYPER, params, alpha, DIFF_GRID.coords()[:80])
        out = qr_lstsq(J, constant(np.zeros(80)))
        np.testing.assert_array_equal(out.data, np.zeros(4))

    def test_full_grid_hyper_target_is_the_projected_rom(self, monkeypatch):
        # hyper x diffusion: the decoder is affine in the code and the FTCS
        # rate linear in the field, so the target over every grid point is
        # exactly M alpha + b
        dec_params = init_decoder(HYPER, seed=6)
        dyn_config = DynamicsConfig(latent_dim=4, layers=1, width=8)
        rng = np.random.default_rng(12)
        n, b = DIFF_GRID.num_points, 3
        alpha = rng.normal(size=(b, 4))
        targets = []
        latent_rnmse_ = losses.latent_rnmse
        monkeypatch.setattr(losses, "latent_rnmse",
                            lambda pred, target: targets.append(target.data)
                            or latent_rnmse_(pred, target))
        batch_terms(HYPER, dec_params, dyn_config, init_dynamics(dyn_config, 6),
                    constant(alpha), 1.0 + rng.random((b, n, 1)), DIFF_SPEC,
                    np.stack([rng.permutation(n) for _ in range(b)]))
        A, c = affine_decomposition(HYPER, dec_params, DIFF_GRID.coords(), fast=True)
        M, bias = projected_affine_rom(DIFF_SPEC, A.data, c.data)
        want = alpha @ M.T + bias
        (got,) = targets
        rel = np.linalg.norm(got - want, axis=1) / np.linalg.norm(want, axis=1)
        assert rel.max() <= 1e-10

    def test_subsampling_robustness(self):
        # the full-grid projection still scores near zero on 99.9 % of the grid
        params = init_decoder(HYPER, seed=5)
        rng = np.random.default_rng(11)
        alpha = rng.normal(size=4) * 0.5
        n = DIFF_GRID.num_points
        x = projection(HYPER, params, alpha, DIFF_SPEC, np.arange(n))
        near = rng.choice(n, size=int(0.999 * n), replace=False)
        assert self._dyn(params, alpha, x, near) <= 0.05


class TestDynamicsLoss:
    def _setup(self):
        dec_params = init_decoder(SIREN, seed=0)
        dyn_config = DynamicsConfig(latent_dim=2, layers=1, width=8, param_dim=1)
        dyn_params = init_dynamics(dyn_config, seed=0)
        alpha = np.random.default_rng(1).normal(size=(1, 2)) * 0.3
        beta = np.array([[0.02]])
        return dec_params, dyn_config, dyn_params, alpha, beta

    def _dyn(self, dyn_params, subset, alpha=None):
        dec_params, dyn_config, _, alpha0, beta = self._setup()
        snaps = 1.0 + np.zeros((1, BURG_GRID.num_points, 1))
        return batch_terms(SIREN, dec_params, dyn_config, dyn_params,
                           alpha0 if alpha is None else alpha, snaps, BURG_SPEC,
                           subset[None], beta_b=beta)[1]

    def test_hardwired_network_zero_loss(self):
        # batch path and reference agree to rounding, so "zero" is <= 1e-8
        dec_params, _, dyn_params, alpha, beta = self._setup()
        subset = np.random.default_rng(42).choice(32, size=16, replace=False)
        target = reference_target(SIREN, dec_params, constant(alpha[0]), BURG_SPEC,
                                  subset, constant(beta[0]))
        assert self._dyn(rigged(dyn_params, target.data), subset).data <= 1e-8

    def test_gradient_reaches_dynamics_params(self):
        _, _, dyn_params, _, _ = self._setup()
        leaves = {k: Tensor(v.data, requires_grad=True) for k, v in dyn_params.items()}
        subset = np.random.default_rng(3).choice(32, size=16, replace=False)
        grads = backward(self._dyn(leaves, subset), list(leaves.values()))
        assert any(np.abs(g).max() > 0 for g in grads)

    def test_fixed_rng_bitwise_reproducible(self):
        _, _, dyn_params, _, _ = self._setup()

        def run():
            subset = np.random.default_rng(7).choice(32, size=16, replace=False)
            return self._dyn(dyn_params, subset).data

        assert run().tobytes() == run().tobytes()

    def test_two_draws_generally_differ(self):
        _, _, dyn_params, _, _ = self._setup()
        rng = np.random.default_rng(5)
        values = {self._dyn(dyn_params, rng.choice(32, size=8, replace=False)).data.item()
                  for _ in range(4)}
        assert len(values) > 1


class TestTotalLoss:
    def test_end_to_end_gradient_matches_fd(self):
        # The objective train minimizes, lam * rec + (1 - lam) * dyn from
        # batch_terms, differentiated through decoder, solver, Jacobian,
        # QR and both normalized losses at once: siren on Burgers with a
        # PDE parameter, two snapshots, half the grid per subset.  The
        # dynamics loss holds its denominator ||target|| fixed by
        # construction (gradient stopping), so the finite-difference
        # oracle is the reference with that denominator frozen at the
        # base point - the exact function reverse mode differentiates.
        dec_params = init_decoder(SIREN, seed=1)
        dyn_config = DynamicsConfig(latent_dim=2, layers=1, width=8, param_dim=1)
        dyn_params = init_dynamics(dyn_config, seed=1)
        rng = np.random.default_rng(2)
        alpha = rng.normal(size=(2, 2)) * 0.3
        snapshots = 1.0 + 0.1 * rng.random((2, 32, 1))
        beta_b = np.array([[0.02], [0.025]])
        subset_idx = np.stack([rng.choice(32, size=16, replace=False) for _ in range(2)])
        params = {f"dec.{k}": v for k, v in dec_params.items()}
        params.update({f"dyn.{k}": v for k, v in dyn_params.items()})
        params["alpha"] = constant(alpha)
        c0 = [np.linalg.norm(reference_target(SIREN, dec_params, constant(alpha[i]),
                                              BURG_SPEC, subset_idx[i],
                                              constant(beta_b[i])).data)
              for i in range(2)]

        def split(p):
            dec = {k[4:]: v for k, v in p.items() if k.startswith("dec.")}
            dyn = {k[4:]: v for k, v in p.items() if k.startswith("dyn.")}
            return dec, dyn

        def shipped(p):
            dec, dyn = split(p)
            rec, dyn_term = batch_terms(SIREN, dec, dyn_config, dyn, p["alpha"], snapshots,
                                        BURG_SPEC, subset_idx, beta_b=beta_b)
            return dm.add(dm.mul(rec, 0.5), dm.mul(dyn_term, 0.5))

        def frozen(p):
            dec, dyn = split(p)
            total = constant(np.float64(0.0))
            for i in range(2):
                a = dm.reshape(dm.take_rows(p["alpha"], [i]), (2,))
                rec, dyn_term = reference_terms(SIREN, dec, dyn_config, dyn, a, snapshots[i],
                                                BURG_SPEC, subset_idx[i],
                                                constant(beta_b[i]), denom=c0[i])
                total = dm.add(total, dm.add(dm.mul(rec, 0.25), dm.mul(dyn_term, 0.25)))
            return total

        _, g_ship = grad(shipped, params)
        assert fd_check_params(frozen, params, grads=g_ship) <= 1e-4


class TestBatchTerms:
    @pytest.mark.parametrize("arch", ["hyper", "siren"])
    @pytest.mark.parametrize("warmup", [False, True])
    def test_matches_per_snapshot_ops(self, arch, warmup):
        # values and gradients (codes, decoder, dynamics network) of both
        # terms equal the mean of the per-snapshot reference terms, with
        # the full grid observed and with sparse observations, where the
        # batch decodes only the sample mesh
        rng = np.random.default_rng(31)
        if arch == "hyper":
            dec_config, spec = HYPER, DIFF_SPEC
            beta_b = None
            # ring points, ring-adjacent points and an interior point
            edge = [0, 5, 1763, 43, 44, 85, 1720, 900]
        else:
            dec_config, spec = SIREN, BURG_SPEC
            beta_b = rng.uniform(0.015, 0.03, size=(3, 1))
            edge = [0, 1, 30, 31]  # inflow, its neighbour, the outflow end
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
        rest = np.setdiff1d(np.arange(n), edge)
        subset_idx = np.stack([
            np.concatenate([edge, rng.choice(rest, size=n_sub - len(edge), replace=False)])
            for _ in range(3)
        ])
        # a tenth of the grid, sharing some points with every subset
        obs_idx = np.concatenate([edge[::2], rng.choice(rest, size=n // 10, replace=False)])

        params = [*dec_params.values(), *dyn_params.values()]
        for obs in (None, obs_idx):
            observed = snapshots if obs is None else snapshots[:, obs]
            alpha_b = Tensor(alpha_np, requires_grad=True)
            batch = batch_terms(
                dec_config, dec_params, dyn_config, dyn_params,
                alpha_b, observed, spec, subset_idx,
                obs_indices=obs, beta_b=beta_b, warmup=warmup,
            )

            alphas = [Tensor(a, requires_grad=True) for a in alpha_np]
            recs, dyns = [], []
            for i, alpha in enumerate(alphas):
                beta = None if beta_b is None else constant(beta_b[i])
                rec, dyn = reference_terms(dec_config, dec_params, dyn_config, dyn_params,
                                           alpha, observed[i], spec, subset_idx[i],
                                           beta, warmup=warmup, obs=obs)
                recs.append(rec)
                dyns.append(dyn)
            for got, terms in zip(batch, (recs, dyns)):
                want = dm.mul(dm.add(dm.add(terms[0], terms[1]), terms[2]), 1.0 / 3.0)
                np.testing.assert_allclose(got.data, want.data, rtol=1e-9)
                g_got = backward(got, [alpha_b, *params])
                g_want = backward(want, [*alphas, *params])
                g_want = [np.stack(g_want[:3]), *g_want[3:]]
                for a, b in zip(g_got, g_want):
                    np.testing.assert_allclose(a, b, rtol=1e-9,
                                               atol=1e-12 * max(np.abs(b).max(), 1.0))

    @pytest.mark.parametrize("spec", [DIFF_SPEC, BURG_SPEC], ids=["diffusion", "burgers"])
    def test_sample_mesh_holds_what_the_losses_read(self, spec):
        # the mesh is the observed points plus each subset point and its
        # grid-axis neighbours, and a field zeroed off it has the full
        # field's rate at every subset point, bit for bit
        n = spec.grid.num_points
        rng = np.random.default_rng(36)
        obs = rng.choice(n, size=n // 10, replace=False)
        subset_idx = np.stack([rng.choice(n, size=n // 10, replace=False) for _ in range(4)])
        subset_idx[0, :3] = [0, 1, n - 1]  # a corner or the inflow, its neighbour, the end
        rows, place = losses._sample_mesh(spec, obs, subset_idx)
        width = rows.shape[1]
        shape = np.array(spec.grid.shape)
        for b in range(4):
            pos = np.stack(np.unravel_index(subset_idx[b], spec.grid.shape), axis=-1)
            want = set(obs) | set(subset_idx[b])
            for axis in range(len(shape)):
                for step in (-1, 1):
                    nb = pos.copy()
                    nb[:, axis] += step
                    inside = ((nb >= 0) & (nb < shape)).all(axis=1)
                    want |= set(np.ravel_multi_index(tuple(nb[inside].T), spec.grid.shape))
            assert set(rows[b]) == want
            assert (np.diff(rows[b, :len(want)]) > 0).all()
            on = place[b] < width
            np.testing.assert_array_equal(np.flatnonzero(on), rows[b, :len(want)])
            np.testing.assert_array_equal(rows[b, place[b, on]], np.flatnonzero(on))
        assert width == max(len(set(r)) for r in rows)

        u = 0.5 + rng.random((4, *spec.grid.shape))  # non-zero on the ring
        beta = None if spec.pde == "diffusion2d" else rng.uniform(0.015, 0.03, size=(4, 1))
        zeroed = np.where((place < width).reshape(u.shape), u, 0.0)
        full = time_derivative(spec, u, beta).data.reshape(4, n)
        got = time_derivative(spec, zeroed, beta).data.reshape(4, n)
        assert (np.take_along_axis(got, subset_idx, axis=1).tobytes()
                == np.take_along_axis(full, subset_idx, axis=1).tobytes())

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
            field_rnmse(decode(HYPER, dec_params, constant(alpha_np[i]),
                               DIFF_GRID.coords()[obs]), snaps_full[i, obs]).data
            for i in range(2)
        ])
        np.testing.assert_allclose(rec_b.data, expected, rtol=1e-9)


class TestTrigOnce:
    """One joint-phase ``batch_terms`` plus ``backward`` evaluates each
    hidden-layer sine and cosine once: the tape's ``sin``/``cos``
    adjoints reuse the value of the other function."""

    def _run(self, monkeypatch, dec_config, spec, subset_idx, beta_b=None):
        rng = np.random.default_rng(36)
        b, k = subset_idx.shape[0], dec_config.latent_dim
        dyn_config = DynamicsConfig(latent_dim=k, layers=1, width=8,
                                    param_dim=0 if beta_b is None else 1)
        leaves = lambda ps: {n: Tensor(v.data, requires_grad=True) for n, v in ps.items()}
        dec_params = leaves(init_decoder(dec_config, seed=8))
        dyn_params = leaves(init_dynamics(dyn_config, seed=8))
        alpha = Tensor(rng.normal(size=(b, k)) * 0.3, requires_grad=True)
        snaps = 1.0 + rng.random((b, spec.grid.num_points, 1))
        calls = spy_trig(monkeypatch)
        rec, dyn = batch_terms(dec_config, dec_params, dyn_config, dyn_params, alpha,
                               snaps, spec, subset_idx, beta_b=beta_b)
        backward(dm.add(rec, dyn), [alpha, *dec_params.values(), *dyn_params.values()])
        return calls

    def test_hyper_one_sine_and_cosine_per_hidden_layer(self, monkeypatch):
        rng = np.random.default_rng(37)
        idx = np.stack([rng.choice(DIFF_GRID.num_points, size=200, replace=False)
                        for _ in range(2)])
        calls = self._run(monkeypatch, HYPER, DIFF_SPEC, idx)
        assert len(calls["sin"]) == len(calls["cos"]) == HYPER.layers

    def test_siren_jacobian_one_sine_and_cosine_per_hidden_layer(self, monkeypatch):
        siren = DecoderConfig("siren", latent_dim=2, layers=2, width=16, coord_dim=1,
                              coord_lo=(0.0,), coord_hi=(100.0,))
        rng = np.random.default_rng(38)
        b, n_sub = 3, 16
        idx = np.stack([rng.choice(BURG_GRID.num_points, size=n_sub, replace=False)
                        for _ in range(b)])
        calls = self._run(monkeypatch, siren, BURG_SPEC, idx, np.full((b, 1), 0.02))
        for name, args in calls.items():
            # the Jacobian's pre-activations are the (B, n_sub, width) arguments
            jac = [x for x in args if x.shape == (b, n_sub, siren.width)]
            assert len(jac) == siren.layers, name
            # and no array, there or in the batch decode, goes through one twice
            assert len({id(x) for x in args}) == len(args), name
