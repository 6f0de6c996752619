"""Autodiff core: add/mul, broadcasting, sum, reshape, relu, concatenate."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.framework import Tensor, concatenate, no_grad
from repro.framework.tensor import _unbroadcast


def fd_grad(f, x, eps=1e-6):
    """Central finite-difference gradient of scalar f at array x."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x.copy(); xp[idx] += eps
        xm = x.copy(); xm[idx] -= eps
        g[idx] = (f(xp) - f(xm)) / (2 * eps)
        it.iternext()
    return g


class TestBasics:
    def test_leaf_has_no_parents(self):
        t = Tensor([1.0, 2.0])
        assert t.op_name == "leaf"
        assert t._parents == ()

    def test_shape_dtype_size(self):
        t = Tensor(np.zeros((2, 3), dtype=np.float32))
        assert t.shape == (2, 3)
        assert t.dtype == np.float32
        assert t.size == 6
        assert t.ndim == 2
        assert len(t) == 2

    def test_item_scalar(self):
        assert Tensor(3.5).item() == 3.5


class TestArithmetic:
    def test_add_backward(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        y = Tensor(np.array([3.0, 4.0]), requires_grad=True)
        (x + y).sum().backward()
        np.testing.assert_allclose(x.grad, [1, 1])
        np.testing.assert_allclose(y.grad, [1, 1])

    def test_mul_backward(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        y = Tensor(np.array([3.0, 4.0]), requires_grad=True)
        (x * y).sum().backward()
        np.testing.assert_allclose(x.grad, [3, 4])
        np.testing.assert_allclose(y.grad, [1, 2])

    def test_scalar_coercion(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        (x * 3 + 1).backward()
        np.testing.assert_allclose(x.grad, [3.0])

    def test_broadcast_add_unbroadcasts_grad(self):
        x = Tensor(np.zeros((2, 3)), requires_grad=True)
        b = Tensor(np.zeros((3,)), requires_grad=True)
        (x + b).sum().backward()
        assert b.grad.shape == (3,)
        np.testing.assert_allclose(b.grad, [2, 2, 2])

    def test_broadcast_mul_keepdim_axis(self):
        x = Tensor(np.ones((2, 1, 3)), requires_grad=True)
        y = Tensor(np.ones((2, 4, 3)), requires_grad=True)
        (x * y).sum().backward()
        assert x.grad.shape == (2, 1, 3)
        np.testing.assert_allclose(x.grad, 4.0)

    def test_diamond_graph_accumulates(self):
        # x used twice: grad must accumulate through both paths.
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * x + x * 3.0
        y.backward()
        np.testing.assert_allclose(x.grad, [2 * 2.0 + 3.0])

    def test_repeated_use_in_chain(self):
        x = Tensor(np.array([1.5]), requires_grad=True)
        z = (x + x) * x
        z.backward()
        np.testing.assert_allclose(x.grad, [4 * 1.5])


class TestReductionsAndShape:
    def test_sum_axis_keepdims(self):
        x = Tensor(np.ones((2, 3, 4)), requires_grad=True)
        x.sum(axis=1, keepdims=True).sum().backward()
        np.testing.assert_allclose(x.grad, 1.0)

    def test_sum_axis_no_keepdims(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        s = x.sum(axis=0)
        assert s.shape == (3,)
        s.sum().backward()
        np.testing.assert_allclose(x.grad, 1.0)

    def test_sum_negative_axis(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        x.sum(axis=-1).sum().backward()
        np.testing.assert_allclose(x.grad, 1.0)

    def test_reshape_roundtrip_grad(self):
        x = Tensor(np.arange(6.0), requires_grad=True)
        x.reshape(2, 3).sum().backward()
        assert x.grad.shape == (6,)

    def test_concatenate_splits_grad(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        c = concatenate([a, b], axis=1)
        assert c.shape == (2, 5)
        (c * 2).sum().backward()
        np.testing.assert_allclose(a.grad, 2.0)
        np.testing.assert_allclose(b.grad, 2.0)


class TestNonlinearities:
    def test_relu_gradient_mask(self):
        x = Tensor(np.array([-1.0, 0.0, 2.0]), requires_grad=True)
        x.relu().sum().backward()
        np.testing.assert_allclose(x.grad, [0, 0, 1])

    @pytest.mark.parametrize("dtype", [np.float32, np.float16])
    def test_relu_non_finite(self, dtype):
        # -inf clamps to 0 (not -inf * 0 = NaN); NaN stays NaN; the
        # gradient passes only where the input is > 0.
        values = np.array([-np.inf, -1.0, -0.0, 0.0, 1.0, np.inf, np.nan],
                          dtype=dtype)
        x = Tensor(values, requires_grad=True)
        y = x.relu()
        assert y.dtype == dtype
        np.testing.assert_array_equal(y.data, [0, 0, 0, 0, 1, np.inf, np.nan])
        y.backward()                       # seeded with ones
        np.testing.assert_array_equal(x.grad, [0, 0, 0, 0, 1, 1, 0])


class TestNoGrad:
    def test_no_grad_blocks_tape(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            y = x * 2
        assert not y.requires_grad

    def test_no_grad_restores(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            pass
        assert (x * 2).requires_grad


class TestUnbroadcast:
    @given(st.sampled_from([(3,), (1,), (2, 3), (1, 3), (2, 1), (1, 1)]))
    @settings(max_examples=20, deadline=None)
    def test_unbroadcast_inverts_broadcast(self, shape):
        target = np.zeros(shape)
        g = np.ones(np.broadcast_shapes(shape, (4, 2, 3)))
        out = _unbroadcast(g, shape)
        assert out.shape == shape
        # Total mass is conserved.
        assert out.sum() == g.sum()


class TestHypothesisGradients:
    @given(
        st.integers(2, 4), st.integers(2, 4),
        st.sampled_from(["add", "mul"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_binary_op_gradcheck(self, n, m, op):
        rng = np.random.default_rng(n * 10 + m)
        a = rng.normal(size=(n, m)) + 3.0
        b = rng.normal(size=(m,)) + 3.0  # broadcast path
        ta = Tensor(a, requires_grad=True)
        tb = Tensor(b, requires_grad=True)
        f = {"add": lambda x, y: x + y, "mul": lambda x, y: x * y}[op]
        f(ta, tb).sum().backward()
        fnp = {"add": np.add, "mul": np.multiply}[op]
        np.testing.assert_allclose(
            ta.grad, fd_grad(lambda x: fnp(x, b).sum(), a), rtol=1e-4, atol=1e-6)
        np.testing.assert_allclose(
            tb.grad, fd_grad(lambda y: fnp(a, y).sum(), b), rtol=1e-4, atol=1e-6)
