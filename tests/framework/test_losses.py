"""Weighted softmax cross-entropy: values, gradients, weighting."""
import numpy as np
import pytest

from repro.framework import Tensor
from repro.framework.losses import log_softmax, weighted_cross_entropy


class TestSoftmax:
    def test_probs_sum_to_one(self):
        z = np.random.default_rng(0).normal(size=(2, 5, 3, 3))
        p = np.exp(log_softmax(z, axis=1))
        np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=1e-6)

    def test_stable_for_large_logits(self):
        z = np.array([[1000.0, 1001.0]])
        logp = log_softmax(z, axis=1)
        assert np.isfinite(logp).all()
        np.testing.assert_allclose(np.exp(logp).sum(), 1.0)

    def test_log_softmax_consistent(self):
        z = np.random.default_rng(1).normal(size=(4, 3))
        e = np.exp(z)
        np.testing.assert_allclose(np.exp(log_softmax(z, axis=1)),
                                   e / e.sum(axis=1, keepdims=True), rtol=1e-6)


class TestWeightedCrossEntropy:
    def _setup(self, seed=0, n=2, k=3, h=4, w=5):
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=(n, k, h, w))
        labels = rng.integers(0, k, size=(n, h, w))
        weights = rng.uniform(0.5, 2.0, size=(n, h, w)).astype(np.float32)
        return logits, labels, weights

    def test_matches_manual(self):
        logits, labels, weights = self._setup()
        t = Tensor(logits, requires_grad=True)
        loss = weighted_cross_entropy(t, labels, weights)
        logp = log_softmax(logits, axis=1)
        ni, hi, wi = np.ogrid[:2, :4, :5]
        manual = (weights * -logp[ni, labels, hi, wi]).sum() / weights.sum()
        np.testing.assert_allclose(loss.item(), manual, rtol=1e-6)

    def test_mean_normalization(self):
        logits, labels, weights = self._setup()
        t = Tensor(logits)
        l1 = weighted_cross_entropy(t, labels, weights, normalization="mean")
        l2 = weighted_cross_entropy(t, labels, weights, normalization="weighted_mean")
        ratio = l1.item() / l2.item()
        np.testing.assert_allclose(ratio, weights.sum() / weights.size, rtol=1e-5)

    def test_unweighted_default(self):
        logits, labels, _ = self._setup()
        t = Tensor(logits)
        l_none = weighted_cross_entropy(t, labels, None)
        l_ones = weighted_cross_entropy(t, labels, np.ones((2, 4, 5)))
        np.testing.assert_allclose(l_none.item(), l_ones.item(), rtol=1e-7)

    def test_gradient_fd(self):
        logits, labels, weights = self._setup(seed=3, n=1, k=3, h=2, w=2)
        t = Tensor(logits, requires_grad=True)
        weighted_cross_entropy(t, labels, weights).backward()
        eps = 1e-6
        for idx in [(0, 0, 0, 0), (0, 2, 1, 1), (0, 1, 0, 1)]:
            lp = logits.copy(); lp[idx] += eps
            lm = logits.copy(); lm[idx] -= eps
            fp = weighted_cross_entropy(Tensor(lp), labels, weights).item()
            fm = weighted_cross_entropy(Tensor(lm), labels, weights).item()
            fd = (fp - fm) / (2 * eps)
            np.testing.assert_allclose(t.grad[idx], fd, rtol=1e-4, atol=1e-7)

    def test_perfect_prediction_low_loss(self):
        labels = np.zeros((1, 2, 2), dtype=np.int64)
        logits = np.zeros((1, 3, 2, 2))
        logits[:, 0] = 50.0
        loss = weighted_cross_entropy(Tensor(logits), labels)
        assert loss.item() < 1e-6

    def test_weight_increases_class_gradient(self):
        # Heavier weight on a pixel -> larger gradient magnitude there.
        logits = np.zeros((1, 2, 1, 2))
        labels = np.array([[[0, 0]]])
        w_hi = np.array([[[10.0, 1.0]]], dtype=np.float32)
        t = Tensor(logits, requires_grad=True)
        weighted_cross_entropy(t, labels, w_hi, normalization="mean").backward()
        assert abs(t.grad[0, 0, 0, 0]) > abs(t.grad[0, 0, 0, 1])

    def test_label_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="labels shape"):
            weighted_cross_entropy(Tensor(np.zeros((1, 3, 2, 2))),
                                   np.zeros((1, 3, 3), dtype=int))

    def test_label_range_raises(self):
        with pytest.raises(ValueError, match="out of range"):
            weighted_cross_entropy(Tensor(np.zeros((1, 3, 2, 2))),
                                   np.full((1, 2, 2), 5))

    def test_bad_normalization_raises(self):
        with pytest.raises(ValueError, match="normalization"):
            weighted_cross_entropy(Tensor(np.zeros((1, 3, 2, 2))),
                                   np.zeros((1, 2, 2), dtype=int),
                                   normalization="bogus")

    def test_fp16_logits_grad_dtype(self):
        logits = np.zeros((1, 3, 2, 2), dtype=np.float16)
        t = Tensor(logits, requires_grad=True)
        weighted_cross_entropy(t, np.zeros((1, 2, 2), dtype=int)).backward()
        assert t.grad.dtype == np.float16
