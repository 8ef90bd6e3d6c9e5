"""Tape, dual-batch, and least-squares primitives."""

import functools
import warnings

import numpy as np
import pytest

from pderom import diffmath as dm
from pderom.diffmath import DualBatch, qr_lstsq

from helpers import (
    fd_check_params,
    fd_gradient,
    grad,
    normal_equations_lstsq,
    parameter,
    spy_trig,
)


class TestGrad:
    def test_sum_of_squares(self):
        value, grads = grad(
            lambda p: dm.sum_(dm.mul(p["x"], p["x"])), {"x": dm.constant([1.0, 2.0])}
        )
        assert value == 5.0
        np.testing.assert_array_equal(grads["x"].data, [2.0, 4.0])

    def test_constant_function_zero_grad(self):
        value, grads = grad(
            lambda p: dm.constant(3.5), {"x": dm.constant([1.0, 2.0, 3.0])}
        )
        assert value == 3.5
        np.testing.assert_array_equal(grads["x"].data, np.zeros(3))

    def test_two_layer_mlp_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        params = {
            "W1": dm.constant(rng.normal(size=(3, 8)) * 0.5),
            "b1": dm.constant(rng.normal(size=8) * 0.1),
            "W2": dm.constant(rng.normal(size=(8, 1)) * 0.5),
            "b2": dm.constant(rng.normal(size=1) * 0.1),
        }
        x = dm.constant(rng.normal(size=(5, 3)))
        y = dm.constant(rng.normal(size=(5, 1)))

        def loss(p):
            h = dm.sigmoid(dm.add(dm.matmul(x, p["W1"]), p["b1"]))
            out = dm.add(dm.matmul(h, p["W2"]), p["b2"])
            return dm.mean_(dm.pow_const(dm.sub(out, y), 2))

        assert fd_check_params(loss, params) <= 1e-5

    def test_grad_deterministic_bitwise(self):
        rng = np.random.default_rng(1)
        params = {"w": dm.constant(rng.normal(size=(4, 4)))}
        x = rng.normal(size=(6, 4))

        def loss(p):
            return dm.sum_(dm.sin(dm.matmul(dm.constant(x), p["w"])))

        _, g1 = grad(loss, params)
        _, g2 = grad(loss, params)
        assert np.array_equal(g1["w"].data, g2["w"].data)

    def test_scalar_used_three_times(self):
        x = parameter(np.array(2.0))
        y = dm.add(dm.add(dm.mul(x, 3.0), dm.mul(x, 4.0)), dm.mul(x, 5.0))
        (g,) = dm.backward(y, [x])
        assert g == 12.0

    def test_nonfinite_intermediate_names_operation(self):
        def loss(p):
            return dm.sum_(dm.sqrt(p["x"]))

        with pytest.raises(dm.NonFiniteError, match="sqrt"):
            grad(loss, {"x": dm.constant([1.0, -1.0])})

    def test_finite_values_with_overflowing_sum_pass(self):
        # the sum of this finite data overflows; no check or warning may fire
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = dm.add([1e308, 1e308], [0.0, 0.0])
        np.testing.assert_array_equal(out.data, [1e308, 1e308])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_nonfinite_next_to_huge_values_raises(self, bad):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(dm.NonFiniteError, match="add"):
                dm.add([1e308, 1e308, bad], [0.0, 0.0, 0.0])


class TestStopGradient:
    def test_product_rule_with_frozen_factor(self):
        value, grads = grad(
            lambda p: dm.sum_(dm.mul(p["x"], dm.stop_gradient(p["x"]))),
            {"x": dm.constant([3.0])},
        )
        assert value == 9.0
        np.testing.assert_array_equal(grads["x"].data, [3.0])

    def test_value_roundtrip(self):
        x = dm.constant(np.arange(6.0).reshape(2, 3))
        np.testing.assert_array_equal(dm.stop_gradient(x).data, x.data)

    def test_frozen_denominator_gradient(self):
        # d/db of ||a - b|| / c with c = ||b|| held constant
        rng = np.random.default_rng(2)
        a = rng.normal(size=4)
        b0 = rng.normal(size=4)

        def loss(p):
            diff = dm.sub(dm.constant(a), p["b"])
            num = dm.norm2(diff)
            den = dm.norm2(dm.stop_gradient(p["b"]))
            return dm.div(num, den)

        _, grads = grad(loss, {"b": dm.constant(b0)})
        expected = -(a - b0) / (np.linalg.norm(a - b0) * np.linalg.norm(b0))
        np.testing.assert_allclose(grads["b"].data, expected, rtol=1e-12)


class TestPrimitives:
    @pytest.mark.parametrize("shape_a,shape_b", [((3, 4), (3, 4)), ((1, 4), (3, 4)), ((3, 1), (1, 4))])
    def test_broadcasting_grad(self, shape_a, shape_b):
        rng = np.random.default_rng(3)
        params = {
            "a": dm.constant(rng.normal(size=shape_a)),
            "b": dm.constant(rng.normal(size=shape_b)),
        }

        def loss(p):
            return dm.sum_(dm.add(dm.mul(p["a"], p["b"]),
                                  dm.div(p["a"], dm.add(dm.pow_const(p["b"], 2), 3.0))))

        assert fd_check_params(loss, params) <= 1e-5

    def test_reductions_and_shapes(self):
        rng = np.random.default_rng(4)
        params = {"x": dm.constant(rng.normal(size=(2, 3, 4)))}

        def loss(p):
            y = dm.mean_(p["x"], axis=2)
            z = dm.transpose(y, (1, 0))
            return dm.sum_(dm.pow_const(dm.reshape(z, (6,)), 2))

        assert fd_check_params(loss, params) <= 1e-5

    def test_concat_take_slice_pad(self):
        rng = np.random.default_rng(5)
        params = {
            "a": dm.constant(rng.normal(size=(4, 2))),
            "b": dm.constant(rng.normal(size=(4, 3))),
        }
        idx = np.array([2, 0, 3])

        def loss(p):
            joined = dm.concat([p["a"], p["b"]], axis=1)
            rows = dm.take_rows(joined, idx)
            clipped = dm.slice_(rows, (slice(0, 2), slice(1, 4)))
            padded = dm.pad_zero(clipped, ((1, 1), (0, 0)))
            return dm.sum_(dm.exp(dm.mul(padded, 0.3)))

        assert fd_check_params(loss, params) <= 1e-5

    def test_take_along_grad(self):
        rng = np.random.default_rng(6)
        params = {"x": dm.constant(rng.normal(size=(3, 8)))}
        idx = np.stack([rng.choice(8, size=4, replace=False) for _ in range(3)])

        def loss(p):
            return dm.sum_(dm.pow_const(dm.take_along(p["x"], idx, axis=1), 2))

        assert fd_check_params(loss, params) <= 1e-5

    @pytest.mark.parametrize("shape", [(7,), (7, 3), (7, 2, 3)], ids=["1d", "2d", "3d"])
    def test_take_rows_adjoint_equals_add_at(self, shape):
        # bitwise, with repeated and negative indices
        rng = np.random.default_rng(8)
        a = dm.Tensor(rng.normal(size=shape), requires_grad=True)
        idx = np.array([[3, -1, 3, 0], [6, -7, 2, -1]])
        out = dm.take_rows(a, idx)
        g = rng.normal(size=out.shape)
        want = np.zeros(shape)
        np.add.at(want, idx, g)
        (got,) = out.vjp(g)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape,axis", [((6,), 0), ((6, 4), 0), ((4, 6), 1),
                                            ((3, 4, 6), -1), ((3, 6, 2), 1), ((6, 3, 2), 0)])
    def test_take_along_adjoint_equals_add_at(self, shape, axis):
        rng = np.random.default_rng(9)
        a = dm.Tensor(rng.normal(size=shape), requires_grad=True)
        idx_shape = list(shape)
        idx_shape[axis] = 9
        idx = rng.integers(-6, 6, size=idx_shape)
        out = dm.take_along(a, idx, axis)
        g = rng.normal(size=out.shape)
        want = np.zeros(shape)
        grids = list(np.ogrid[tuple(slice(n) for n in idx.shape)])
        grids[axis] = idx
        np.add.at(want, tuple(grids), g)
        (got,) = out.vjp(g)
        assert got.tobytes() == want.tobytes()

    def test_take_along_adjoint_with_a_broadcast_index(self):
        # one index row serves every row of ``a``, as np.take_along_axis allows
        a = dm.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        out = dm.take_along(a, np.array([[2, 0, 2]]), axis=1)
        (got,) = out.vjp(np.array([[1.0, 2.0, 4.0], [8.0, 16.0, 32.0]]))
        np.testing.assert_array_equal(got, [[2.0, 0.0, 5.0], [16.0, 0.0, 40.0]])

    def test_extrema_and_transcendentals(self):
        rng = np.random.default_rng(7)
        params = {
            "a": dm.constant(rng.normal(size=12)),
            "b": dm.constant(rng.normal(size=12)),
        }

        def loss(p):
            top = dm.maximum(p["a"], p["b"])
            bot = dm.minimum(p["a"], p["b"])
            mix = dm.add(dm.add(dm.add(dm.sin(top), dm.cos(bot)), dm.softplus(p["a"])),
                         dm.sqrt(dm.exp(p["b"])))
            return dm.sum_(mix)

        assert fd_check_params(loss, params) <= 1e-5

    def test_matmul_batched_grad(self):
        rng = np.random.default_rng(8)
        params = {
            "a": dm.constant(rng.normal(size=(2, 5, 3))),
            "w": dm.constant(rng.normal(size=(3, 4))),
        }

        def loss(p):
            return dm.sum_(dm.sin(dm.matmul(p["a"], p["w"])))

        assert fd_check_params(loss, params) <= 1e-5

    @pytest.mark.parametrize("shape_p,shape_q", [((5, 4), (3, 1, 4)), ((5, 4), (1, 4)),
                                                 ((3, 5, 4), (3, 1, 4))])
    def test_sin_shift_values(self, shape_p, shape_q):
        rng = np.random.default_rng(9)
        p = rng.uniform(-40.0, 40.0, size=shape_p)
        q = rng.uniform(-40.0, 40.0, size=shape_q)
        out = dm.sin_shift(np.sin(p), np.cos(p), q)
        assert out.shape == np.broadcast_shapes(shape_p, shape_q)
        np.testing.assert_allclose(out.data, np.sin(p + q), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("shape_p,shape_q", [((5, 4), (3, 1, 4)), ((5, 4), (1, 4)),
                                                 ((3, 5, 4), (3, 1, 4))])
    def test_sin_shift_grad(self, shape_p, shape_q):
        # s and c are independent inputs here, not sine and cosine of one p
        rng = np.random.default_rng(10)
        params = {
            "s": dm.constant(rng.normal(size=shape_p)),
            "c": dm.constant(rng.normal(size=shape_p)),
            "q": dm.constant(rng.normal(size=shape_q)),
        }
        weights = rng.normal(size=np.broadcast_shapes(shape_p, shape_q))

        def loss(p):
            return dm.sum_(dm.mul(dm.sin_shift(p["s"], p["c"], p["q"]), weights))

        assert fd_check_params(loss, params) <= 1e-6

    def test_sin_shift_non_finite_shift(self):
        q = np.zeros((2, 1, 3))
        q[1, 0, 2] = np.inf
        p = np.zeros((4, 3))
        with np.errstate(invalid="ignore"), pytest.raises(dm.NonFiniteError) as err:
            dm.sin_shift(np.sin(p), np.cos(p), q)
        assert err.value.op == "sin_shift"

    def test_no_grad_context(self):
        x = parameter(np.ones(3))
        with dm.no_grad():
            y = dm.sum_(dm.mul(x, x))
        assert y.parents == () and not y.requires_grad


class TestKeptTrig:
    """``dm.sin``/``dm.cos`` of one tensor: each adjoint reads the other's value."""

    @pytest.mark.parametrize("ops", [("sin",), ("cos",), ("sin", "cos"), ("cos", "sin")],
                             ids="-".join)
    def test_gradients_are_bitwise_those_of_fresh_trig(self, ops):
        rng = np.random.default_rng(11)
        xv = rng.uniform(-40.0, 40.0, size=(5, 7))
        w = {op: rng.normal(size=xv.shape) for op in ops}
        want = {"sin": w.get("sin", 0.0) * np.cos(xv), "cos": w.get("cos", 0.0) * -np.sin(xv)}
        x = parameter(xv)
        outs = {op: getattr(dm, op)(x) for op in ops}
        for op, out in outs.items():
            (got,) = out.vjp(w[op])
            np.testing.assert_array_equal(got, want[op])
        terms = [dm.sum_(dm.mul(out, w[op])) for op, out in outs.items()]
        (g,) = dm.backward(functools.reduce(dm.add, terms), [x])
        # two addends: their sum does not depend on the accumulation order
        np.testing.assert_array_equal(g, sum(want[op] for op in ops))

    def test_sine_and_cosine_of_one_tensor_run_once_each(self, monkeypatch):
        calls = spy_trig(monkeypatch)
        x = parameter(np.linspace(-3.0, 3.0, 11))
        loss = dm.sum_(dm.mul(dm.sin(x), dm.cos(x)))
        dm.backward(loss, [x])
        assert len(calls["sin"]) == 1 and len(calls["cos"]) == 1

    def test_nothing_kept_without_an_adjoint(self):
        x = parameter(np.linspace(-3.0, 3.0, 11))
        with dm.no_grad():
            dm.sin(x), dm.cos(x)
        assert x.trig is None
        c = dm.constant(np.linspace(-3.0, 3.0, 11))
        dm.sin(c), dm.cos(c)
        assert c.trig is None

    def test_kept_value_is_the_output_and_each_store_a_new_map(self):
        x = parameter(np.linspace(-3.0, 3.0, 11))
        s = dm.sin(x)
        kept = x.trig
        assert kept == {"sin": s.data} and kept["sin"] is s.data
        c = dm.cos(x)
        assert kept == {"sin": s.data}
        assert x.trig["sin"] is s.data and x.trig["cos"] is c.data

    def test_lone_sine_keeps_no_cosine(self, monkeypatch):
        calls = spy_trig(monkeypatch)
        x = parameter(np.linspace(-3.0, 3.0, 11))
        dm.backward(dm.sum_(dm.sin(x)), [x])
        assert len(calls["cos"]) == 1
        assert "cos" not in x.trig


def row_stable(op, a, w):
    """``op`` in row-stable mode on rows ``a`` and weights ``w``."""
    if op == "matmul":
        return dm.matmul(a, w, row_stable=True).data
    bias = np.linspace(-1.0, 1.0, w.shape[-1])
    return dm.sine_affine(a, w, bias, 30.0, row_stable=True).data


# shapes (K, N) of the weights: the decoders' hidden layer, the scalar
# output head, the hyper frequency map and the hyper affine map
@pytest.mark.parametrize("K,N", [(64, 64), (64, 1), (2, 64), (8, 1764)])
@pytest.mark.parametrize("op", ["matmul", "sine_affine"])
class TestRowStable:
    """Each output row depends on its own row and the weights alone.

    A single gemm over all rows fails these: its kernel blocks over rows,
    and a lone row goes to gemv instead."""

    def operands(self, K, N, rows=40):
        rng = np.random.default_rng(K * 10000 + N)
        return rng.normal(size=(rows, K)), rng.normal(size=(K, N)) / np.sqrt(K)

    def test_single_row_equals_its_row_of_the_full_result(self, op, K, N):
        a, w = self.operands(K, N)
        full = row_stable(op, a, w)
        for i in range(len(a)):
            np.testing.assert_array_equal(row_stable(op, a[i:i + 1], w), full[i:i + 1])

    def test_permuted_rows(self, op, K, N):
        a, w = self.operands(K, N)
        perm = np.random.default_rng(1).permutation(len(a))
        np.testing.assert_array_equal(row_stable(op, a[perm], w), row_stable(op, a, w)[perm])

    def test_transposed_view_matches_contiguous_copy(self, op, K, N):
        a, w = self.operands(K, N)
        view = np.ascontiguousarray(a.T).T
        assert not view.flags.c_contiguous
        np.testing.assert_array_equal(row_stable(op, view, w), row_stable(op, a, w))

    def test_stacked_rows_match_each_row(self, op, K, N):
        a, w = self.operands(K, N, rows=3 * 7)
        full = row_stable(op, a.reshape(3, 7, K), w)
        for j in range(3):
            for i in range(7):
                np.testing.assert_array_equal(row_stable(op, a[7 * j + i][None], w),
                                              full[j, i][None])


@pytest.mark.parametrize("K", [1, 64])
def test_row_stable_matmul_with_stacked_weights(K):
    # (n, K) @ (B, K, N): every (row, stack) pair equals its lone product,
    # as the code rows broadcast over the points in the decoders' tangents
    rng = np.random.default_rng(K)
    a, b = rng.normal(size=(30, K)), rng.normal(size=(4, K, 64))
    full = dm.matmul(a, b, row_stable=True).data
    assert full.shape == (4, 30, 64)
    for j in range(4):
        for i in range(30):
            lone = dm.matmul(a[i:i + 1], b[j], row_stable=True).data
            np.testing.assert_array_equal(lone, full[j, i:i + 1])


class TestDualBatch:
    def test_tangent_must_stack_the_value_shape(self):
        value = dm.constant(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="does not stack"):
            DualBatch(value, dm.constant(np.zeros((3, 3, 2))))
        with pytest.raises(ValueError, match="stack k copies"):
            DualBatch(value, dm.constant(np.zeros((2, 3))))


class TestQrLstsq:
    def test_identity_system(self):
        b = np.array([3.0, -1.0, 2.0])
        x = qr_lstsq(dm.constant(np.eye(3)), dm.constant(b))
        np.testing.assert_allclose(x.data, b, atol=1e-14)

    def test_mean_of_two_observations(self):
        x = qr_lstsq(
            dm.constant(np.array([[1.0], [1.0]])), dm.constant(np.array([0.0, 2.0]))
        )
        np.testing.assert_allclose(x.data, [1.0], atol=1e-14)

    def test_random_systems_match_normal_equations(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            J = rng.normal(size=(200, 8))
            b = rng.normal(size=200)
            x = qr_lstsq(dm.constant(J), dm.constant(b))
            np.testing.assert_allclose(
                x.data, normal_equations_lstsq(J, b), atol=1e-8
            )

    def test_residual_orthogonal_to_column_space(self):
        rng = np.random.default_rng(14)
        J = rng.normal(size=(60, 5))
        b = rng.normal(size=60)
        x = qr_lstsq(dm.constant(J), dm.constant(b)).data
        lhs = np.linalg.norm(J.T @ (b - J @ x))
        assert lhs <= 1e-8 * np.linalg.norm(J.T @ b)

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(15)
        J = rng.normal(size=(7, 20, 4))
        b = rng.normal(size=(7, 20))
        x = qr_lstsq(dm.constant(J), dm.constant(b)).data
        for i in range(7):
            np.testing.assert_allclose(x[i], normal_equations_lstsq(J[i], b[i]), atol=1e-10)

    def test_rank_deficient_names_column(self):
        J = np.ones((10, 3))
        J[:, 2] = 2.0 * J[:, 0]  # duplicate direction
        J[:, 1] = np.arange(10)
        with pytest.raises(dm.SingularSystemError) as err:
            qr_lstsq(dm.constant(J), dm.constant(np.ones(10)))
        assert err.value.column == 2
        assert err.value.index == ()

    def test_mixed_scale_batch_matches_single_solves(self):
        # one threshold over the whole batch rejected the small system
        rng = np.random.default_rng(17)
        J1 = rng.normal(size=(20, 4))
        J = np.stack([J1, 1e-12 * J1])
        b = rng.normal(size=(2, 20))
        x = qr_lstsq(dm.constant(J), dm.constant(b)).data
        for i in range(2):
            alone = qr_lstsq(dm.constant(J[i]), dm.constant(b[i])).data
            np.testing.assert_array_equal(x[i], alone)

    def test_rank_deficient_system_in_batch_names_index(self):
        rng = np.random.default_rng(18)
        J = rng.normal(size=(2, 3, 10, 3))
        J[1, 2, :, 1] = -3.0 * J[1, 2, :, 0]
        with pytest.raises(dm.SingularSystemError, match="batch position 1, 2") as err:
            qr_lstsq(dm.constant(J), dm.constant(np.ones((2, 3, 10))))
        assert err.value.index == (1, 2)
        assert err.value.column == 1

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(16)
        w = rng.normal(size=4)
        params = {
            "J": dm.constant(rng.normal(size=(12, 4))),
            "b": dm.constant(rng.normal(size=12)),
        }

        def loss(p):
            x = qr_lstsq(p["J"], p["b"])
            return dm.sum_(dm.sin(dm.mul(x, dm.constant(w))))

        assert fd_check_params(loss, params) <= 1e-5
