"""Top-k gradient compression with error feedback (Section VIII-B)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import SparseGradient, TopKCompressor, World, sparse_allreduce


class TestTopKCompressor:
    def test_keeps_largest_magnitudes(self):
        c = TopKCompressor(ratio=0.25)
        g = np.array([0.1, -5.0, 0.2, 3.0, 0.05, -0.3, 0.0, 1.0])
        sparse = c.compress("w", g)
        assert sparse.values.size == 2
        assert set(np.abs(sparse.values)) == {5.0, 3.0}

    def test_densify_roundtrip(self):
        c = TopKCompressor(ratio=0.5)
        g = np.arange(8.0).reshape(2, 4)
        sparse = c.compress("w", g)
        dense = sparse.densify()
        assert dense.shape == (2, 4)
        # Kept entries equal the originals, dropped are zero.
        kept = dense != 0
        np.testing.assert_allclose(dense[kept], g.astype(np.float32)[kept])

    def test_error_feedback_carries_residual(self):
        c = TopKCompressor(ratio=0.25)
        g = np.array([4.0, 1.0, 1.0, 1.0])
        first = c.compress("w", g)
        np.testing.assert_allclose(first.densify(), [4, 0, 0, 0])
        # Residual [0,1,1,1] is added to the next gradient.
        second = c.compress("w", np.zeros(4))
        assert second.densify().sum() == pytest.approx(1.0)

    def test_residual_conservation(self):
        # compressed + residual == gradient + previous residual, always.
        c = TopKCompressor(ratio=0.3)
        rng = np.random.default_rng(0)
        prev_res = np.zeros(20, dtype=np.float32)
        for _ in range(5):
            g = rng.normal(size=20).astype(np.float32)
            sparse = c.compress("w", g)
            new_res = c._residual["w"]
            np.testing.assert_allclose(sparse.densify().ravel() + new_res,
                                       g + prev_res, rtol=1e-6, atol=1e-6)
            prev_res = new_res.copy()

    def test_ratio_one_keeps_everything(self):
        c = TopKCompressor(ratio=1.0)
        g = np.array([1.0, -2.0, 3.0])
        np.testing.assert_allclose(c.compress("w", g).densify(), g)

    def test_per_tensor_residuals_independent(self):
        c = TopKCompressor(ratio=0.5)
        c.compress("a", np.array([1.0, 2.0]))
        c.compress("b", np.array([3.0, 4.0]))
        # Each tensor's next step adds back only its own dropped entry.
        zeros = np.zeros(2)
        np.testing.assert_allclose(c.compress("a", zeros).densify(), [1, 0])
        np.testing.assert_allclose(c.compress("b", zeros).densify(), [3, 0])

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            TopKCompressor(ratio=0.0)
        with pytest.raises(ValueError):
            TopKCompressor(ratio=1.5)

    def test_reset(self):
        c = TopKCompressor(ratio=0.5)
        c.compress("w", np.array([1.0, 2.0]))
        c.reset()
        np.testing.assert_allclose(c.compress("w", np.zeros(2)).densify(), 0.0)

    def test_compression_saves_bytes(self):
        c = TopKCompressor(ratio=0.01)
        g = np.random.default_rng(1).normal(size=10000).astype(np.float32)
        sparse = c.compress("w", g)
        assert sparse.nbytes < g.nbytes / 10


class TestSparseAllreduce:
    def test_equals_mean_of_sparsified(self):
        n = 4
        rng = np.random.default_rng(2)
        compressors = [TopKCompressor(ratio=0.2) for _ in range(n)]
        grads = [rng.normal(size=(5, 5)).astype(np.float32) for _ in range(n)]
        sparse = [c.compress("w", g) for c, g in zip(compressors, grads)]
        expect = np.mean([s.densify() for s in sparse], axis=0)
        world = World(n)
        results = sparse_allreduce(world, sparse)
        for r in results:
            np.testing.assert_allclose(r, expect, rtol=1e-6, atol=1e-7)

    def test_bandwidth_reduction_measured(self):
        n = 4
        size = 10000
        rng = np.random.default_rng(3)
        sparse = [TopKCompressor(ratio=0.01).compress("w", rng.normal(size=size))
                  for _ in range(n)]
        world = World(n)
        sparse_allreduce(world, sparse)
        dense_volume = n * (n - 1) * size * 4  # equivalent naive allgather
        assert world.stats.total_bytes < dense_volume / 15

    def test_shape_mismatch(self):
        a = SparseGradient(np.array([0]), np.array([1.0], dtype=np.float32), (4,))
        b = SparseGradient(np.array([0]), np.array([1.0], dtype=np.float32), (5,))
        with pytest.raises(ValueError):
            sparse_allreduce(World(2), [a, b])

    def test_count_mismatch(self):
        a = SparseGradient(np.array([0]), np.array([1.0], dtype=np.float32), (4,))
        with pytest.raises(ValueError):
            sparse_allreduce(World(3), [a, a])

    @given(st.integers(2, 5), st.floats(0.05, 1.0))
    @settings(max_examples=15, deadline=None)
    def test_property_exact_mean(self, n, ratio):
        rng = np.random.default_rng(int(ratio * 1000) + n)
        sparse = [TopKCompressor(ratio=ratio).compress("w",
                                                       rng.normal(size=30))
                  for _ in range(n)]
        expect = np.mean([s.densify() for s in sparse], axis=0)
        results = sparse_allreduce(World(n), sparse)
        for r in results:
            np.testing.assert_allclose(r, expect, rtol=1e-5, atol=1e-6)


class TestConvergenceWithCompression:
    # Error-feedback theory (Stich et al.) needs the step size scaled with
    # the compression ratio: a coordinate touched every ~1/ratio steps
    # receives its *accumulated* gradient, so lr must satisfy
    # lr / ratio * L < 2 or the delayed update overshoots.
    LR = 0.04  # ratio 0.1, quadratic with L = 2 -> stable

    def test_error_feedback_converges_on_quadratic(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=50).astype(np.float32) * 5
        c = TopKCompressor(ratio=0.1)
        for _ in range(600):
            grad = 2 * x
            x = x - self.LR * c.compress("x", grad).densify().ravel()
        assert np.abs(x).max() < 1e-3

    def test_without_feedback_leaves_small_coords_frozen(self):
        # Without the residual, coordinates that never make the top-k are
        # never updated; with it, every coordinate is eventually served.
        rng = np.random.default_rng(5)
        x0 = rng.normal(size=50).astype(np.float32) * 5

        def run(feedback: bool):
            x = x0.copy()
            c = TopKCompressor(ratio=0.1)
            for _ in range(600):
                grad = 2 * x
                sparse = c.compress("x", grad)
                if not feedback:
                    c.reset()  # discard the residual every step
                x = x - self.LR * sparse.densify().ravel()
            return float(np.abs(x).sum())

        assert run(feedback=True) < 0.01 * run(feedback=False)

    def test_oversized_lr_diverges_without_ratio_scaling(self):
        # The failure mode that motivates the lr/ratio rule.
        rng = np.random.default_rng(6)
        x = rng.normal(size=50).astype(np.float32) * 5
        start = float(np.abs(x).max())
        c = TopKCompressor(ratio=0.1)
        for _ in range(200):
            x = x - 0.5 * c.compress("x", 2 * x).densify().ravel()
        assert np.abs(x).max() > start  # overshoot-driven growth
