"""Pooling kernels: forward vs naive, gradient routing."""
import numpy as np
import pytest

from repro.framework.ops.pool import maxpool2d_backward, maxpool2d_forward


def naive_maxpool(x, k, s, p):
    n, c, h, w = x.shape
    oh = (h + 2 * p - k) // s + 1
    ow = (w + 2 * p - k) // s + 1
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)), constant_values=-np.inf)
    out = np.empty((n, c, oh, ow))
    for b in range(n):
        for ci in range(c):
            for i in range(oh):
                for j in range(ow):
                    out[b, ci, i, j] = xp[b, ci, i * s : i * s + k, j * s : j * s + k].max()
    return out


class TestMaxPool:
    @pytest.mark.parametrize("k,s,p", [(2, 2, 0), (3, 2, 1), (3, 1, 1), (2, 1, 0)])
    def test_matches_naive(self, k, s, p):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 8, 8))
        out, _ = maxpool2d_forward(x, k, s, p)
        np.testing.assert_allclose(out, naive_maxpool(x, k, s, p))

    def test_backward_routes_to_argmax(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        out, arg = maxpool2d_forward(x, 2, 2, 0)
        g = np.array([[[[10.0]]]])
        dx = maxpool2d_backward(g, arg, x.shape, 2, 2, 0)
        np.testing.assert_allclose(dx, [[[[0, 0], [0, 10.0]]]])

    def test_overlapping_windows_accumulate(self):
        # 3x3/1 pool: the global max feeds several outputs.
        x = np.zeros((1, 1, 5, 5))
        x[0, 0, 2, 2] = 100.0
        out, arg = maxpool2d_forward(x, 3, 1, 0)
        g = np.ones_like(out)
        dx = maxpool2d_backward(g, arg, x.shape, 3, 1, 0)
        assert dx[0, 0, 2, 2] == 9.0  # max visible to all 9 windows
        assert dx.sum() == out.size

    def test_tie_breaks_to_first_tap(self):
        x = np.ones((1, 1, 2, 2))
        out, arg = maxpool2d_forward(x, 2, 2, 0)
        dx = maxpool2d_backward(np.ones_like(out), arg, x.shape, 2, 2, 0)
        assert dx.sum() == 1.0  # exactly one input credited

    def test_gradcheck(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 2, 6, 6)) * 10  # spread values: no ties
        out, arg = maxpool2d_forward(x, 3, 2, 1)
        g = rng.normal(size=out.shape)
        dx = maxpool2d_backward(g, arg, x.shape, 3, 2, 1)
        eps = 1e-6
        for idx in [(0, 0, 0, 0), (0, 1, 3, 3), (0, 0, 5, 5)]:
            xp = x.copy(); xp[idx] += eps
            xm = x.copy(); xm[idx] -= eps
            fd = ((maxpool2d_forward(xp, 3, 2, 1)[0] * g).sum()
                  - (maxpool2d_forward(xm, 3, 2, 1)[0] * g).sum()) / (2 * eps)
            np.testing.assert_allclose(dx[idx], fd, rtol=1e-5, atol=1e-7)

    def test_preserves_dtype(self):
        x = np.zeros((1, 1, 4, 4), dtype=np.float16)
        out, _ = maxpool2d_forward(x, 2, 2, 0)
        assert out.dtype == np.float16

