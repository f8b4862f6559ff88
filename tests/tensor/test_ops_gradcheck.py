"""Finite-difference validation of every autodiff op."""

import numpy as np
import pytest

from repro.tensor import Tensor, gradcheck
from repro.tensor import ops


def t(arr):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=True)


RNG = np.random.default_rng(0)


class TestElementwise:
    def test_add(self):
        gradcheck(lambda a, b: (a + b).sum(), [t(RNG.normal(size=(3, 4))), t(RNG.normal(size=(3, 4)))])

    def test_add_broadcast_row(self):
        gradcheck(lambda a, b: (a + b).sum(), [t(RNG.normal(size=(3, 4))), t(RNG.normal(size=(4,)))])

    def test_add_broadcast_col(self):
        gradcheck(lambda a, b: (a + b).sum(), [t(RNG.normal(size=(3, 4))), t(RNG.normal(size=(3, 1)))])

    def test_sub(self):
        gradcheck(lambda a, b: (a - b).sum(), [t(RNG.normal(size=(2, 3))), t(RNG.normal(size=(2, 3)))])

    def test_rsub_scalar(self):
        gradcheck(lambda a: (1.0 - a).sum(), [t(RNG.normal(size=(5,)))])

    def test_mul(self):
        gradcheck(lambda a, b: (a * b).sum(), [t(RNG.normal(size=(3, 4))), t(RNG.normal(size=(3, 4)))])

    def test_mul_broadcast(self):
        gradcheck(lambda a, b: (a * b).sum(), [t(RNG.normal(size=(3, 4))), t(RNG.normal(size=(1, 4)))])

    def test_div(self):
        gradcheck(
            lambda a, b: (a / b).sum(),
            [t(RNG.normal(size=(3, 3))), t(2.0 + RNG.random(size=(3, 3)))],
        )

    def test_rdiv_scalar(self):
        gradcheck(lambda a: (1.0 / a).sum(), [t(2.0 + RNG.random(size=(4,)))])

    def test_neg(self):
        gradcheck(lambda a: (-a).sum(), [t(RNG.normal(size=(3,)))])

    def test_power(self):
        gradcheck(lambda a: (a**3).sum(), [t(1.0 + RNG.random(size=(3, 2)))])

    def test_power_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            ops.power(t([1.0]), t([2.0]))

    def test_log(self):
        gradcheck(lambda a: ops.log(a).sum(), [t(1.0 + RNG.random(size=(4,)))])

    def test_sqrt(self):
        gradcheck(lambda a: ops.sqrt(a).sum(), [t(1.0 + RNG.random(size=(4,)))])

    def test_maximum(self):
        a = t(RNG.normal(size=(4, 4)))
        b = t(RNG.normal(size=(4, 4)) + 0.3)
        gradcheck(lambda a, b: ops.maximum(a, b).sum(), [a, b])

    def test_where(self):
        cond = RNG.random(size=(3, 3)) > 0.5
        gradcheck(
            lambda a, b: ops.where(cond, a, b).sum(),
            [t(RNG.normal(size=(3, 3))), t(RNG.normal(size=(3, 3)))],
        )


class TestActivations:
    def test_relu(self):
        # offset away from the kink where finite differences are invalid
        a = t(RNG.normal(size=(5, 5)) + 0.05)
        gradcheck(lambda a: ops.relu(a).sum(), [a])

    def test_elu_positive_branch(self):
        gradcheck(lambda a: ops.elu(a).sum(), [t(0.5 + RNG.random(size=(4,)))])

    def test_elu_negative_branch(self):
        gradcheck(lambda a: ops.elu(a).sum(), [t(-2.0 - RNG.random(size=(4,)))])

    def test_elu_mixed(self):
        a = RNG.normal(size=(6, 3))
        a[np.abs(a) < 0.05] += 0.1
        gradcheck(lambda a: ops.elu(a).sum(), [t(a)])

    def test_elu_value(self):
        x = Tensor(np.array([-1.0, 0.0, 2.0]))
        y = ops.elu(x)
        np.testing.assert_allclose(y.data, [np.expm1(-1.0), 0.0, 2.0])

    def test_elu_no_overflow_large_negative(self):
        y = ops.elu(Tensor(np.array([-1e4])))
        assert np.isfinite(y.data).all()
        np.testing.assert_allclose(y.data, [-1.0])


class TestLinearAlgebra:
    def test_matmul_2d(self):
        gradcheck(
            lambda a, b: (a @ b).sum(),
            [t(RNG.normal(size=(3, 4))), t(RNG.normal(size=(4, 2)))],
        )

    def test_matmul_vec_mat(self):
        gradcheck(
            lambda a, b: (a @ b).sum(),
            [t(RNG.normal(size=(4,))), t(RNG.normal(size=(4, 2)))],
        )

    def test_matmul_mat_vec(self):
        gradcheck(
            lambda a, b: (a @ b).sum(),
            [t(RNG.normal(size=(3, 4))), t(RNG.normal(size=(4,)))],
        )

    def test_matmul_vec_vec(self):
        gradcheck(
            lambda a, b: (a @ b).sum(),
            [t(RNG.normal(size=(4,))), t(RNG.normal(size=(4,)))],
        )

    def test_linear_fused(self):
        x, w, b = t(RNG.normal(size=(5, 3))), t(RNG.normal(size=(4, 3))), t(RNG.normal(size=(4,)))
        gradcheck(lambda x, w, b: ops.linear(x, w, b).sum(), [x, w, b])

    def test_linear_no_bias(self):
        x, w = t(RNG.normal(size=(5, 3))), t(RNG.normal(size=(4, 3)))
        gradcheck(lambda x, w: ops.linear(x, w).sum(), [x, w])

    def test_linear_matches_matmul(self):
        x, w, b = RNG.normal(size=(5, 3)), RNG.normal(size=(4, 3)), RNG.normal(size=(4,))
        out = ops.linear(Tensor(x), Tensor(w), Tensor(b))
        np.testing.assert_allclose(out.data, x @ w.T + b)


class TestReductionsShapes:
    def test_sum_all(self):
        gradcheck(lambda a: a.sum(), [t(RNG.normal(size=(3, 4)))])

    def test_sum_axis0(self):
        gradcheck(lambda a: a.sum(axis=0).sum(), [t(RNG.normal(size=(3, 4)))])

    def test_sum_axis_neg(self):
        gradcheck(lambda a: a.sum(axis=-1).sum(), [t(RNG.normal(size=(3, 4)))])

    def test_sum_keepdims(self):
        out = Tensor(RNG.normal(size=(3, 4))).sum(axis=1, keepdims=True)
        assert out.shape == (3, 1)

    def test_mean_all(self):
        gradcheck(lambda a: a.mean(), [t(RNG.normal(size=(3, 4)))])

    def test_mean_axis(self):
        gradcheck(lambda a: a.mean(axis=0).sum(), [t(RNG.normal(size=(3, 4)))])

    def test_reshape(self):
        gradcheck(lambda a: (a.reshape(6) * np.arange(6.0)).sum(), [t(RNG.normal(size=(2, 3)))])

    def test_transpose(self):
        gradcheck(
            lambda a: (a.T * np.arange(6.0).reshape(3, 2)).sum(),
            [t(RNG.normal(size=(2, 3)))],
        )

    def test_transpose_axes(self):
        a = t(RNG.normal(size=(2, 3, 4)))
        w = np.arange(24.0).reshape(4, 2, 3)
        gradcheck(lambda a: (ops.transpose(a, (2, 0, 1)) * w).sum(), [a])

    def test_concatenate(self):
        a, b = t(RNG.normal(size=(2, 3))), t(RNG.normal(size=(4, 3)))
        w = np.arange(18.0).reshape(6, 3)
        gradcheck(lambda a, b: (ops.concatenate([a, b], axis=0) * w).sum(), [a, b])

    def test_concatenate_axis1(self):
        a, b = t(RNG.normal(size=(3, 2))), t(RNG.normal(size=(3, 4)))
        w = np.arange(18.0).reshape(3, 6)
        gradcheck(lambda a, b: (ops.concatenate([a, b], axis=1) * w).sum(), [a, b])

    def test_stack(self):
        a, b = t(RNG.normal(size=(2, 3))), t(RNG.normal(size=(2, 3)))
        w = np.arange(12.0).reshape(2, 2, 3)
        gradcheck(lambda a, b: (ops.stack([a, b]) * w).sum(), [a, b])

    def test_getitem_slice(self):
        a = t(RNG.normal(size=(5, 3)))
        w = np.arange(6.0).reshape(2, 3)
        gradcheck(lambda a: (a[1:3] * w).sum(), [a])

    def test_getitem_int_array_with_repeats(self):
        a = t(RNG.normal(size=(4, 2)))
        idx = np.array([0, 0, 3, 1])
        w = np.arange(8.0).reshape(4, 2)
        gradcheck(lambda a: (a[idx] * w).sum(), [a])


class TestGatherScatter:
    def test_gather_rows(self):
        a = t(RNG.normal(size=(5, 3)))
        idx = np.array([4, 0, 0, 2])
        w = np.arange(12.0).reshape(4, 3)
        gradcheck(lambda a: (ops.gather_rows(a, idx) * w).sum(), [a])

    def test_scatter_add_forward(self):
        src = Tensor(np.ones((4, 2)))
        idx = np.array([0, 0, 1, 2])
        out = ops.scatter_add(src, idx, 3)
        np.testing.assert_allclose(out.data, [[2, 2], [1, 1], [1, 1]])

    def test_scatter_add_grad(self):
        src = t(RNG.normal(size=(6, 2)))
        idx = np.array([0, 1, 1, 2, 0, 3])
        w = np.arange(8.0).reshape(4, 2)
        gradcheck(lambda s: (ops.scatter_add(s, idx, 4) * w).sum(), [src])

    def test_scatter_gather_adjoint(self):
        """<scatter(x), y> == <x, gather(y)> — exact adjointness."""
        rng = np.random.default_rng(7)
        x = rng.normal(size=(10, 4))
        y = rng.normal(size=(6, 4))
        idx = rng.integers(0, 6, size=10)
        lhs = np.sum(ops.scatter_add(Tensor(x), idx, 6).data * y)
        rhs = np.sum(x * y[idx])
        assert abs(lhs - rhs) < 1e-12

    def test_scatter_add_rejects_float_index(self):
        with pytest.raises(TypeError):
            ops.scatter_add(Tensor(np.ones((2, 2))), np.array([0.0, 1.0]), 2)

    def test_gather_rejects_float_index(self):
        with pytest.raises(TypeError):
            ops.gather_rows(Tensor(np.ones((2, 2))), np.array([0.5]))

    def test_scatter_add_rejects_bad_index_shape(self):
        with pytest.raises(ValueError):
            ops.scatter_add(Tensor(np.ones((3, 2))), np.array([0, 1]), 2)


class TestNormalizationLoss:
    def test_layer_norm_grad_x(self):
        x = t(RNG.normal(size=(4, 6)))
        gamma = t(1.0 + 0.1 * RNG.normal(size=(6,)))
        beta = t(0.1 * RNG.normal(size=(6,)))
        w = RNG.normal(size=(4, 6))
        gradcheck(
            lambda x, g, b: (ops.layer_norm(x, g, b) * w).sum(),
            [x, gamma, beta],
            rtol=1e-4,
            atol=1e-6,
        )

    def test_layer_norm_normalizes(self):
        x = Tensor(RNG.normal(size=(8, 16)) * 3 + 5)
        out = ops.layer_norm(x, Tensor(np.ones(16)), Tensor(np.zeros(16)))
        np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.data.std(axis=-1), 1.0, atol=1e-4)

    def test_mse_loss_value(self):
        p = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        y = Tensor(np.array([[0.0, 2.0], [3.0, 0.0]]))
        assert abs(ops.mse_loss(p, y).item() - (1.0 + 16.0) / 4.0) < 1e-14

    def test_mse_loss_grad(self):
        p, y = t(RNG.normal(size=(3, 4))), t(RNG.normal(size=(3, 4)))
        gradcheck(lambda p, y: ops.mse_loss(p, y), [p, y])
