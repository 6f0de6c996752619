"""Batch-norm kernels."""
import numpy as np
import pytest

from repro.framework.ops.norm import batchnorm_backward, batchnorm_forward, batchnorm_infer


class TestBatchNorm:
    def test_normalizes_per_channel(self):
        rng = np.random.default_rng(0)
        x = rng.normal(loc=5.0, scale=3.0, size=(4, 3, 8, 8))
        gamma = np.ones(3, dtype=np.float32)
        beta = np.zeros(3, dtype=np.float32)
        out, _ = batchnorm_forward(x, gamma, beta)
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-6)
        np.testing.assert_allclose(out.std(axis=(0, 2, 3)), 1.0, atol=1e-3)

    def test_affine_params_applied(self):
        x = np.random.default_rng(1).normal(size=(2, 2, 4, 4))
        gamma = np.array([2.0, 3.0], dtype=np.float32)
        beta = np.array([-1.0, 1.0], dtype=np.float32)
        out, _ = batchnorm_forward(x, gamma, beta)
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), beta, atol=1e-5)
        np.testing.assert_allclose(out.std(axis=(0, 2, 3)), gamma, rtol=1e-3)

    def test_backward_gradcheck(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 2, 3, 3))
        gamma = rng.normal(size=2) + 1.5
        beta = rng.normal(size=2)
        out, cache = batchnorm_forward(x, gamma, beta)
        g = rng.normal(size=out.shape)
        dx, dgamma, dbeta = batchnorm_backward(g, cache)
        eps = 1e-5

        def loss(xv):
            return (batchnorm_forward(xv, gamma, beta)[0] * g).sum()

        for idx in [(0, 0, 0, 0), (1, 1, 2, 2), (0, 1, 1, 0)]:
            xp = x.copy(); xp[idx] += eps
            xm = x.copy(); xm[idx] -= eps
            fd = (loss(xp) - loss(xm)) / (2 * eps)
            np.testing.assert_allclose(dx[idx], fd, rtol=1e-3, atol=1e-5)
        # Parameter grads.
        for k in range(2):
            gp = gamma.copy(); gp[k] += eps
            gm = gamma.copy(); gm[k] -= eps
            fd = ((batchnorm_forward(x, gp, beta)[0] * g).sum()
                  - (batchnorm_forward(x, gm, beta)[0] * g).sum()) / (2 * eps)
            np.testing.assert_allclose(dgamma[k], fd, rtol=1e-3)
        np.testing.assert_allclose(dbeta, g.sum(axis=(0, 2, 3)), rtol=1e-5)

    def test_infer_uses_running_stats(self):
        x = np.full((1, 1, 2, 2), 10.0)
        out = batchnorm_infer(x, np.ones(1), np.zeros(1),
                              running_mean=np.array([10.0]),
                              running_var=np.array([4.0]))
        np.testing.assert_allclose(out, 0.0, atol=1e-3)

    def test_fp16_stays_fp16(self):
        x = np.random.default_rng(0).normal(size=(2, 2, 4, 4)).astype(np.float16)
        out, _ = batchnorm_forward(x, np.ones(2, np.float32), np.zeros(2, np.float32))
        assert out.dtype == np.float16

