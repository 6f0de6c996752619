"""Mathematical invariants of the framework, property-based.

These pin down structural facts the layer implementations must satisfy
regardless of shapes or values: linearity and shift-equivariance of
convolution, normalization invariances, adjoint identities, and exactness
of the distributed reductions under permutation.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import World, allreduce
from repro.framework.losses import log_softmax, weighted_cross_entropy
from repro.framework.ops import (
    batchnorm_forward,
    conv2d_backward_input,
    conv2d_forward,
    maxpool2d_forward,
)
from repro.framework.tensor import Tensor


def arrays(shape, seed):
    return np.random.default_rng(seed).normal(size=shape)


class TestConvProperties:
    @given(st.integers(0, 100), st.floats(-3, 3), st.floats(-3, 3))
    @settings(max_examples=20, deadline=None)
    def test_linearity(self, seed, a, b):
        x = arrays((1, 2, 8, 8), seed)
        y = arrays((1, 2, 8, 8), seed + 1)
        w = arrays((3, 2, 3, 3), seed + 2)
        lhs = conv2d_forward(a * x + b * y, w, 1, 1, 1)
        rhs = a * conv2d_forward(x, w, 1, 1, 1) + b * conv2d_forward(y, w, 1, 1, 1)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-8, atol=1e-8)

    @given(st.integers(0, 50), st.integers(1, 3))
    @settings(max_examples=20, deadline=None)
    def test_translation_equivariance(self, seed, shift):
        # Shifting the input shifts the output (away from boundaries).
        x = arrays((1, 1, 12, 12), seed)
        w = arrays((1, 1, 3, 3), seed + 1)
        y = conv2d_forward(x, w, 1, 1, 1)
        x_shift = np.roll(x, shift, axis=3)
        y_shift = conv2d_forward(x_shift, w, 1, 1, 1)
        inner = slice(shift + 1, -(shift + 1))
        np.testing.assert_allclose(y_shift[:, :, :, inner],
                                   np.roll(y, shift, axis=3)[:, :, :, inner],
                                   rtol=1e-9, atol=1e-9)

    @given(st.integers(0, 50))
    @settings(max_examples=15, deadline=None)
    def test_adjoint_identity(self, seed):
        # <g, A x> == <A^T g, x> for the conv/dgrad pair.
        x = arrays((1, 2, 7, 9), seed)
        w = arrays((3, 2, 3, 3), seed + 1)
        y = conv2d_forward(x, w, 2, 1, 1)
        g = arrays(y.shape, seed + 2)
        dx = conv2d_backward_input(g, w, x.shape, 2, 1, 1)
        assert (g * y).sum() == pytest.approx((dx * x).sum(), rel=1e-9)

    @given(st.integers(0, 50), st.floats(0.1, 5.0))
    @settings(max_examples=15, deadline=None)
    def test_scale_equivariance(self, seed, scale):
        x = arrays((1, 2, 6, 6), seed)
        w = arrays((2, 2, 3, 3), seed + 1)
        np.testing.assert_allclose(conv2d_forward(scale * x, w, 1, 1, 1),
                                   scale * conv2d_forward(x, w, 1, 1, 1),
                                   rtol=1e-8)


class TestPoolProperties:
    @given(st.integers(0, 50))
    @settings(max_examples=15, deadline=None)
    def test_max_pool_monotone(self, seed):
        # x <= y elementwise implies pool(x) <= pool(y).
        x = arrays((1, 2, 8, 8), seed)
        y = x + np.abs(arrays((1, 2, 8, 8), seed + 1))
        px, _ = maxpool2d_forward(x, 2, 2)
        py, _ = maxpool2d_forward(y, 2, 2)
        assert (px <= py + 1e-12).all()

    @given(st.integers(0, 50), st.floats(-5, 5))
    @settings(max_examples=15, deadline=None)
    def test_max_pool_shift_covariance(self, seed, c):
        x = arrays((1, 1, 8, 8), seed)
        p1, _ = maxpool2d_forward(x + c, 2, 2)
        p0, _ = maxpool2d_forward(x, 2, 2)
        np.testing.assert_allclose(p1, p0 + c, rtol=1e-9, atol=1e-9)


class TestNormalizationProperties:
    @given(st.integers(0, 50), st.floats(0.5, 10.0), st.floats(-10, 10))
    @settings(max_examples=15, deadline=None)
    def test_batchnorm_affine_input_invariance(self, seed, scale, shift):
        # BN output is invariant to per-channel affine input changes.
        x = arrays((4, 2, 5, 5), seed)
        gamma = np.ones(2, np.float32)
        beta = np.zeros(2, np.float32)
        base, _ = batchnorm_forward(x, gamma, beta)
        moved, _ = batchnorm_forward(scale * x + shift, gamma, beta)
        np.testing.assert_allclose(moved, base, rtol=1e-4, atol=1e-4)

    @given(st.integers(0, 50), st.floats(-20, 20))
    @settings(max_examples=15, deadline=None)
    def test_softmax_shift_invariance(self, seed, c):
        z = arrays((3, 5), seed)
        np.testing.assert_allclose(np.exp(log_softmax(z + c, axis=1)),
                                   np.exp(log_softmax(z, axis=1)), rtol=1e-9,
                                   atol=1e-12)

    @given(st.integers(0, 50))
    @settings(max_examples=10, deadline=None)
    def test_loss_permutation_invariance(self, seed):
        # Shuffling the pixel order does not change the (mean) loss.
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=(1, 3, 4, 4))
        labels = rng.integers(0, 3, size=(1, 4, 4))
        perm = rng.permutation(16)
        l_flat = logits.reshape(1, 3, 16)[:, :, perm].reshape(1, 3, 4, 4)
        lab_flat = labels.reshape(1, 16)[:, perm].reshape(1, 4, 4)
        a = weighted_cross_entropy(Tensor(logits), labels).item()
        b = weighted_cross_entropy(Tensor(l_flat), lab_flat).item()
        assert a == pytest.approx(b, rel=1e-9)


class TestReductionProperties:
    @given(st.integers(2, 6), st.integers(0, 50))
    @settings(max_examples=15, deadline=None)
    def test_allreduce_permutation_invariance(self, n, seed):
        # The reduced value is independent of which rank holds which buffer.
        rng = np.random.default_rng(seed)
        bufs = [rng.normal(size=13).astype(np.float64) for _ in range(n)]
        out1 = allreduce(World(n), bufs, strategy="ring")[0]
        perm = rng.permutation(n)
        out2 = allreduce(World(n), [bufs[i] for i in perm], strategy="ring")[0]
        np.testing.assert_allclose(out1, out2, rtol=1e-12)

    @given(st.integers(2, 6), st.floats(0.1, 10.0))
    @settings(max_examples=15, deadline=None)
    def test_allreduce_homogeneity(self, n, scale):
        rng = np.random.default_rng(int(scale * 100))
        bufs = [rng.normal(size=9).astype(np.float64) for _ in range(n)]
        base = allreduce(World(n), bufs, strategy="ring")[0]
        scaled = allreduce(World(n), [scale * b for b in bufs], strategy="ring")[0]
        np.testing.assert_allclose(scaled, scale * base, rtol=1e-10)


class TestAutogradProperties:
    @given(st.integers(0, 50))
    @settings(max_examples=15, deadline=None)
    def test_gradient_of_sum_is_ones(self, seed):
        x = Tensor(arrays((3, 4), seed), requires_grad=True)
        x.sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    @given(st.integers(0, 50), st.floats(-2, 2), st.floats(-2, 2))
    @settings(max_examples=15, deadline=None)
    def test_grad_linearity(self, seed, a, b):
        # grad of (a f + b g) = a grad f + b grad g.
        base = arrays((5,), seed)

        def grad_of(fn):
            t = Tensor(base.copy(), requires_grad=True)
            fn(t).backward()
            return t.grad

        f = lambda t: (t * t).sum()
        g = lambda t: (t.relu() * t).sum()       # t**2 on t > 0, else 0
        combined = grad_of(lambda t: f(t) * a + g(t) * b)
        np.testing.assert_allclose(combined, a * grad_of(f) + b * grad_of(g),
                                   rtol=1e-8, atol=1e-10)
