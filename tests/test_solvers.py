"""Finite-difference solver contracts and fidelity oracles."""

import numpy as np
import pytest

from pderom import diffmath as dm
from pderom.diffmath import constant
from pderom.solvers import (
    CFLError,
    Grid,
    SolverError,
    SolverSpec,
    StabilityError,
    burgers_step,
    diffusion_step,
    rollout,
    time_derivative,
)

from helpers import fd_check_params, ftcs_step, godunov_step, heat_kernel_2d

DIFF_GRID = Grid(lo=(-20.0, -20.0), hi=(20.0, 20.0), shape=(42, 42))
DIFF_SPEC = SolverSpec("diffusion2d", DIFF_GRID, dt=0.1, params={"kappa": 2.0})
BURG_GRID = Grid(lo=(0.0,), hi=(100.0,), shape=(256,))
BURG_SPEC = SolverSpec("burgers1d", BURG_GRID, dt=0.025, params={})


def gaussian_blob(grid, sigma, amp, center=(0.0, 0.0)):
    xy = grid.coords()
    u = amp * np.exp(
        -((xy[:, 0] - center[0]) ** 2 + (xy[:, 1] - center[1]) ** 2) / (2 * sigma**2)
    ).reshape(grid.shape)
    u[0, :] = u[-1, :] = 0.0
    u[:, 0] = u[:, -1] = 0.0
    return u


class TestDiffusionStep:
    def test_zero_fixed_point(self):
        u = np.zeros(DIFF_GRID.shape)
        out = diffusion_step(constant(u), 2.0, 0.1, DIFF_GRID)
        np.testing.assert_array_equal(out.data, u)

    def test_delta_stencil_arithmetic(self):
        # kappa*dt/h^2 = 0.1: center 0.6, four neighbors 0.1, zero elsewhere
        grid = Grid(lo=(0.0, 0.0), hi=(8.0, 8.0), shape=(9, 9))  # h = 1
        u = np.zeros((9, 9))
        u[4, 4] = 1.0
        out = diffusion_step(constant(u), 1.0, 0.1, grid).data
        expected = np.zeros((9, 9))
        expected[4, 4] = 0.6
        for dy, dx in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            expected[4 + dy, 4 + dx] = 0.1
        np.testing.assert_allclose(out, expected, atol=1e-15)

    def test_heat_kernel_oracle(self):
        # free-space analytic solution for a sigma=5 blob, evolved to t=2
        u0 = gaussian_blob(DIFF_GRID, sigma=5.0, amp=1.0)
        final = rollout(DIFF_SPEC, u0, n_steps=20, save_every=20)[-1]
        exact = heat_kernel_2d(DIFF_GRID.coords(), 2.0, 5.0, 1.0).reshape(42, 42)
        err = np.abs(final - exact).max() / np.abs(exact).max()
        assert err <= 1e-2

    def test_linearity_exact(self):
        rng = np.random.default_rng(0)
        u = rng.normal(size=DIFF_GRID.shape)
        v = rng.normal(size=DIFF_GRID.shape)
        a, b = 1.75, -0.5
        combo = diffusion_step(constant(a * u + b * v), 2.0, 0.1, DIFF_GRID).data
        parts = (
            a * diffusion_step(constant(u), 2.0, 0.1, DIFF_GRID).data
            + b * diffusion_step(constant(v), 2.0, 0.1, DIFF_GRID).data
        )
        np.testing.assert_allclose(combo, parts, atol=1e-13)

    def test_boundary_stays_zero(self):
        rng = np.random.default_rng(1)
        u = rng.normal(size=DIFF_GRID.shape)  # junk on the ring too
        out = diffusion_step(constant(u), 2.0, 0.1, DIFF_GRID).data
        assert (out[0, :] == 0).all() and (out[-1, :] == 0).all()
        assert (out[:, 0] == 0).all() and (out[:, -1] == 0).all()

    @pytest.mark.parametrize("grid", [DIFF_GRID, Grid((0.0, -1.0), (3.0, 2.0), (7, 11))],
                             ids=["square", "rectangle"])
    def test_matches_plain_numpy_ftcs(self, grid):
        # batched random fields, junk on the ring: the interior follows the
        # reference bit for bit, and the ring is zero
        u = np.random.default_rng(8).normal(size=(3, 2, *grid.shape))
        hy, hx = grid.spacing
        out = diffusion_step(constant(u), 2.0, 0.001, grid).data
        np.testing.assert_array_equal(out, ftcs_step(u, 2.0, 0.001, hy, hx))

    @pytest.mark.parametrize("shape", [(5, 5), (2, 5, 5), (3, 42, 42)])
    def test_output_ring_is_positive_zero(self, shape):
        grid = DIFF_GRID if shape[-1] == 42 else Grid((0.0, 0.0), (4.0, 4.0), (5, 5))
        rng = np.random.default_rng(9)
        for u in (rng.normal(size=shape), -np.ones(shape), np.full(shape, -0.0)):
            out = diffusion_step(constant(u), 0.5, 0.1, grid).data
            ring = np.concatenate([out[..., 0, :], out[..., -1, :],
                                   out[..., :, 0], out[..., :, -1]], axis=-1)
            assert (ring == 0.0).all() and not np.signbit(ring).any()

    def test_output_ignores_the_input_ring(self):
        rng = np.random.default_rng(10)
        u = rng.normal(size=(2, 42, 42))
        junk = u.copy()
        junk[..., [0, -1], :] = 1e6 * rng.normal(size=(2, 2, 42))
        junk[..., :, [0, -1]] = -1e6 * rng.random(size=(2, 42, 2))
        a = diffusion_step(constant(u), 2.0, 0.1, DIFF_GRID).data
        b = diffusion_step(constant(junk), 2.0, 0.1, DIFF_GRID).data
        assert a.tobytes() == b.tobytes()

    def test_subtracts_through_the_module_op(self, monkeypatch):
        # the traced benchmark counts the calls of dm.sub
        calls = []
        sub = dm.sub
        monkeypatch.setattr(dm, "sub", lambda a, b: calls.append(1) or sub(a, b))
        u = constant(np.random.default_rng(11).normal(size=(2, *DIFF_GRID.shape)))
        rollout(DIFF_SPEC, u.data, n_steps=3)
        assert len(calls) == 2 * 3

    def test_stability_enforced_at_construction(self):
        with pytest.raises(StabilityError):
            SolverSpec("diffusion2d", DIFF_GRID, dt=0.2, params={"kappa": 2.0})

    def test_gradient_through_step(self):
        rng = np.random.default_rng(2)
        grid = Grid(lo=(0.0, 0.0), hi=(1.0, 1.0), shape=(6, 6))
        w = rng.normal(size=(6, 6))

        def loss(p):
            out = diffusion_step(p["u"], 2.0, 0.001, grid)
            return dm.sum_(dm.mul(out, constant(w)))

        assert fd_check_params(loss, {"u": constant(rng.normal(size=(6, 6)))}) <= 1e-5


class TestBurgersStep:
    def test_source_only_update(self):
        # zero state: interior cells receive exactly dt * 0.02 * exp(mu x)
        w = np.zeros(256)
        mu = 0.025
        out = burgers_step(constant(w), mu, 0.025, BURG_GRID).data
        x = BURG_GRID.coords().reshape(-1)
        expected = 0.025 * 0.02 * np.exp(mu * x)
        np.testing.assert_array_equal(out[1:], expected[1:])
        assert out[0] == 1.0  # inflow pin

    def test_constant_state_flux_cancellation(self):
        for c in (0.5, 1.0, 3.0):
            w = np.full(256, c)
            out = burgers_step(constant(w), 0.0, 0.025, BURG_GRID).data
            np.testing.assert_allclose(out[1:], c + 0.025 * 0.02, atol=1e-15)

    def test_self_convergence_first_order(self):
        def run(nx, t_end=1.0):
            g = Grid((0.0,), (100.0,), (nx,))
            n = int(round(t_end / (0.2 * g.spacing[0])))
            spec = SolverSpec("burgers1d", g, dt=t_end / n, params={})
            return (rollout(spec, np.ones(nx), n, save_every=n, beta=0.02)[-1],
                    g.coords().ravel())

        w256, x256 = run(256)
        w512, x512 = run(512)
        w1024, x1024 = run(1024)
        e1 = np.abs(w256 - np.interp(x256, x512, w512)).mean()
        e2 = np.abs(w512 - np.interp(x512, x1024, w1024)).mean()
        order = np.log2(e1 / e2)
        assert 0.7 <= order <= 1.3

    def test_conservation_without_source(self):
        # conservative form: interior total changes only by boundary fluxes
        rng = np.random.default_rng(3)
        w = 1.0 + 0.3 * rng.random(256)
        wt = constant(w)
        out = burgers_step(wt, -100.0, 0.025, BURG_GRID).data  # e^{mu x} ~ 0 for x>0
        h = BURG_GRID.spacing[0]
        # recompute the boundary fluxes the scheme used
        f_in = 0.5 * max(max(1.0, 0.0) ** 2, min(w[0], 0.0) ** 2)
        f_out = 0.5 * max(max(w[-1], 0.0) ** 2, min(w[-1], 0.0) ** 2)
        lhs = out[1:].sum() - w[1:].sum()  # cell 0 is pinned, exclude it
        f_01 = 0.5 * max(max(w[0], 0.0) ** 2, min(w[1], 0.0) ** 2)
        rhs = -0.025 / h * (f_out - f_01) + 0.025 * 0.02 * np.exp(-100.0 * BURG_GRID.coords().ravel()[1:]).sum()
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    @pytest.mark.parametrize("mu", [0.03, np.array([[-0.05], [0.0], [0.02], [0.1]])],
                             ids=["scalar", "batch"])
    def test_matches_plain_numpy_godunov(self, mu):
        # mixed-sign states exercise both flux branches; cell 0 holds junk
        w = np.random.default_rng(11).uniform(-1.5, 1.5, size=(4, 256))
        w[:, 0] = [-7.0, 0.0, 3.5, 11.0]
        h = BURG_GRID.spacing[0]
        out = burgers_step(constant(w), mu, 0.025, BURG_GRID).data
        expected = godunov_step(w, mu, 0.025, h, BURG_GRID.coords().ravel())
        assert out.tobytes() == expected.tobytes()

    def test_cfl_violation_reports_max(self):
        w = np.ones(256)
        w[100] = 60.0
        with pytest.raises(CFLError) as err:
            burgers_step(constant(w), 0.02, 0.025, BURG_GRID)
        assert err.value.max_w == 60.0

    def test_missing_mu_raises_solver_error(self):
        # a burgers spec takes mu from beta alone: without it the source is undefined
        spec = SolverSpec("burgers1d", BURG_GRID, dt=0.025, params={})
        with pytest.raises(SolverError, match="needs mu"):
            time_derivative(spec, constant(np.ones(256)))
        with pytest.raises(SolverError, match="needs mu"):
            burgers_step(constant(np.ones(256)), None, 0.025, BURG_GRID)

    def test_gradient_wrt_state_and_mu(self):
        rng = np.random.default_rng(4)
        g = Grid((0.0,), (10.0,), (24,))
        w = 1.0 + 0.2 * rng.random(24)
        target = rng.normal(size=24)

        def loss(p):
            out = burgers_step(p["w"], p["mu"], 0.02, g)
            return dm.sum_(dm.mul(out, constant(target)))

        params = {"w": constant(w), "mu": constant(np.array([0.03]))}
        assert fd_check_params(loss, params) <= 1e-5


class TestTimeDerivative:
    def test_diffusion_zero_state(self):
        rate = time_derivative(DIFF_SPEC, constant(np.zeros((42, 42))))
        np.testing.assert_array_equal(rate.data, np.zeros((42, 42)))

    def test_burgers_source_recovery(self):
        rate = time_derivative(BURG_SPEC, constant(np.zeros(256)), 0.02)
        x = BURG_GRID.coords().ravel()
        expected = 0.02 * np.exp(0.02 * x)
        np.testing.assert_allclose(rate.data[1:], expected[1:], rtol=1e-12)

    def test_matches_snapshot_difference_when_saving_every_step(self):
        u0 = gaussian_blob(DIFF_GRID, 4.0, 1.0)
        traj = rollout(DIFF_SPEC, u0, n_steps=3, save_every=1)
        rate = time_derivative(DIFF_SPEC, constant(traj[1])).data
        np.testing.assert_array_equal(rate, (traj[2] - traj[1]) / DIFF_SPEC.dt)

    def test_gradient_flows_through_solver(self):
        # scalar functional of S[u] vs finite differences
        rng = np.random.default_rng(7)
        g = Grid((0.0,), (10.0,), (16,))
        spec = SolverSpec("burgers1d", g, dt=0.02, params={})
        weights = rng.normal(size=16)

        def loss(p):
            return dm.sum_(dm.mul(time_derivative(spec, p["u"], 0.05), constant(weights)))

        assert fd_check_params(loss, {"u": constant(1.0 + 0.3 * rng.random(16))}) <= 1e-5


class TestRollout:
    def test_zero_steps_returns_initial(self):
        u0 = gaussian_blob(DIFF_GRID, 5.0, 1.0)
        traj = rollout(DIFF_SPEC, u0, n_steps=0)
        assert traj.shape == (1, 42, 42)
        np.testing.assert_array_equal(traj[0], u0)

    def test_doubled_save_every_subsamples(self):
        u0 = gaussian_blob(DIFF_GRID, 5.0, 1.0)
        fine = rollout(DIFF_SPEC, u0, n_steps=8, save_every=2)
        coarse = rollout(DIFF_SPEC, u0, n_steps=8, save_every=4)
        np.testing.assert_array_equal(fine[::2], coarse)

    def test_diffusion_mass_non_increasing(self):
        u0 = gaussian_blob(DIFF_GRID, 6.0, 2.0)
        traj = rollout(DIFF_SPEC, u0, n_steps=50, save_every=1)
        mass = traj.sum(axis=(1, 2))
        assert (np.diff(mass) <= 1e-12).all()

    def test_max_principle(self):
        u0 = gaussian_blob(DIFF_GRID, 5.0, 1.5)
        traj = rollout(DIFF_SPEC, u0, n_steps=30, save_every=1)
        peaks = np.abs(traj).max(axis=(1, 2))
        assert (np.diff(peaks) <= 1e-12).all()

    def test_step_error_carries_index(self):
        g = Grid((0.0,), (100.0,), (64,))
        spec = SolverSpec("burgers1d", g, dt=0.5, params={})
        with pytest.raises(SolverError, match=r"step \d+"):
            rollout(spec, np.full(64, 2.0), n_steps=400, beta=0.05)

    def test_batched_error_names_step_and_row(self):
        g = Grid((0.0,), (100.0,), (64,))
        spec = SolverSpec("burgers1d", g, dt=0.5, params={})
        w0 = np.stack([np.ones(64), np.full(64, 3.0)])  # only row 1 breaks CFL
        with pytest.raises(CFLError, match=r"at batch positions \[1\] \(step 19\)$") as err:
            rollout(spec, w0, n_steps=50, beta=np.zeros((2, 1)))
        assert err.value.rows == [1]
        with pytest.raises(CFLError, match=r"\(step 19\)$") as alone:
            rollout(spec, w0[1], n_steps=50, beta=0.0)
        assert "batch positions" not in str(alone.value)
        rollout(spec, w0[0], n_steps=50, beta=0.0)

    def test_non_finite_step_is_named(self):
        u0 = np.zeros((2, 42, 42))
        u0[1, 20, 20] = 1.5e308  # the stencil overflows on the first step
        with np.errstate(over="ignore"), \
                pytest.raises(dm.NonFiniteError, match=r"\(step 1\)$") as err:
            rollout(DIFF_SPEC, u0, n_steps=3)
        assert err.value.op in ("add", "sub", "mul")

    @pytest.mark.parametrize("n_steps,save_every", [(2.0, 1), (2, 1.0), (True, 1),
                                                    (np.float64(3), 1)])
    def test_counts_must_be_integers(self, n_steps, save_every):
        with pytest.raises(ValueError, match="n_steps and save_every must be integers"):
            rollout(DIFF_SPEC, np.zeros(DIFF_GRID.shape), n_steps, save_every)

    def test_batched_rows_equal_separate_rollouts(self):
        u0 = np.stack([gaussian_blob(DIFF_GRID, s, a) for s, a in ((3.0, 1.0), (5.0, 2.0))])
        batch = rollout(DIFF_SPEC, u0, n_steps=6, save_every=2)
        assert batch.shape == (4, 2, 42, 42)
        for b in range(2):
            assert batch[:, b].flags.c_contiguous
            np.testing.assert_array_equal(batch[:, b], rollout(DIFF_SPEC, u0[b], 6, 2))


class TestGrid:
    def test_coords_row_major(self):
        g = Grid(lo=(0.0, 10.0), hi=(1.0, 12.0), shape=(2, 3))
        expected = np.array(
            [[0, 10], [0, 11], [0, 12], [1, 10], [1, 11], [1, 12]], dtype=float
        )
        np.testing.assert_allclose(g.coords(), expected)

    def test_coords_are_a_fresh_copy(self):
        g = Grid(lo=(0.0,), hi=(1.0,), shape=(3,))
        c = g.coords()
        c[:] = 7.0
        np.testing.assert_array_equal(g.coords(), [[0.0], [0.5], [1.0]])

    @pytest.mark.parametrize("hi", [(1.0, 10.0), (-1.0, 12.0), (np.nan, 12.0),
                                    (1.0, np.inf)])
    def test_bounds_must_increase_on_every_axis(self, hi):
        with pytest.raises(ValueError, match="hi > lo"):
            Grid(lo=(0.0, 10.0), hi=hi, shape=(2, 3))

    def test_lower_bounds_must_be_finite(self):
        with pytest.raises(ValueError, match="finite"):
            Grid(lo=(np.nan,), hi=(1.0,), shape=(3,))

    @pytest.mark.parametrize("shape", [(3.5,), (42.0,), (True,), (np.float64(4.0),)])
    def test_shape_entries_must_be_integers(self, shape):
        with pytest.raises(ValueError, match="must be integers"):
            Grid(lo=(0.0,), hi=(1.0,), shape=shape)

    def test_shape_accepts_numpy_integers(self):
        assert Grid(lo=(0.0,), hi=(1.0,), shape=(np.int64(5),)).num_points == 5

    def test_spacing(self):
        assert BURG_GRID.spacing[0] == pytest.approx(100.0 / 255.0)
        assert DIFF_GRID.spacing == (pytest.approx(40.0 / 41.0),) * 2


class TestSolverSpec:
    @pytest.mark.parametrize("pde,grid,params", [
        ("burgers1d", BURG_GRID, {}),
        ("diffusion2d", DIFF_GRID, {"kappa": 2.0}),
    ], ids=["burgers", "diffusion"])
    @pytest.mark.parametrize("dt", [np.nan, np.inf, -np.inf, True])
    def test_dt_must_be_positive_and_finite(self, pde, grid, params, dt):
        with pytest.raises(SolverError, match="dt must be positive and finite"):
            SolverSpec(pde, grid, dt, params)

    def test_kappa_must_be_finite(self):
        # a NaN kappa made the FTCS limit NaN, which no dt exceeds
        with pytest.raises(SolverError, match="finite kappa"):
            SolverSpec("diffusion2d", DIFF_GRID, 0.1, {"kappa": np.nan})

    @pytest.mark.parametrize("pde,params", [
        ("diffusion2d", {"kappa": 2.0, "mu": 3.0}),
        ("diffusion2d", {"kappa": 2.0, "junk": "x"}),
        ("diffusion2d", {}),
        ("diffusion2d", (("kappa", 2.0),)),
        ("burgers1d", {"mu": "x"}),
        ("burgers1d", {"mu": np.nan}),
        ("burgers1d", []),
    ], ids=["extra-mu", "extra-junk", "no-kappa", "pairs", "mu-str", "mu-nan", "list"])
    def test_params_hold_exactly_the_keys_the_pde_reads(self, pde, params):
        # each used to construct and fail later (in a step), or never
        grid, dt = (DIFF_GRID, 0.1) if pde == "diffusion2d" else (BURG_GRID, 0.025)
        with pytest.raises(SolverError, match=f"{pde} params must be a dict with the keys"):
            SolverSpec(pde, grid, dt, params)

    @pytest.mark.parametrize("kappa", ["2.0", True, 0.0])
    def test_kappa_must_be_a_positive_number(self, kappa):
        with pytest.raises(SolverError, match="finite kappa"):
            SolverSpec("diffusion2d", DIFF_GRID, 0.1, {"kappa": kappa})
