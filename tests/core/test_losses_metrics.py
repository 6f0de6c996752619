"""Class weighting (Section V-B1) and segmentation metrics."""
import numpy as np
import pytest

from repro.core import TrainConfig, Trainer
from repro.core.losses import (
    class_weights,
    inverse_frequency_weights,
    inverse_sqrt_frequency_weights,
    pixel_weight_map,
    tc_penalty_ratio,
    uniform_class_weights,
)
from repro.core.metrics import (
    SegmentationReport,
    confusion_matrix,
    iou_per_class,
    mean_iou,
    pixel_accuracy,
)
from repro.framework import Tensor
from repro.framework.layers import Conv2D
from repro.framework.losses import weighted_cross_entropy

#: The paper's class frequencies: BG 98.2%, TC <0.1%, AR 1.7%.
PAPER_FREQS = np.array([0.982, 0.001, 0.017])


def weighted_loss(logits, labels, freqs, strategy,
                  normalization="weighted_mean"):
    wmap = pixel_weight_map(labels, class_weights(freqs, strategy))
    return weighted_cross_entropy(logits, labels, wmap,
                                  normalization=normalization)


class TestWeightStrategies:
    def test_uniform(self):
        np.testing.assert_allclose(uniform_class_weights(PAPER_FREQS), 1.0)

    def test_inverse_ratios(self):
        w = inverse_frequency_weights(PAPER_FREQS)
        assert w[1] / w[0] == pytest.approx(0.982 / 0.001, rel=1e-6)

    def test_inverse_sqrt_ratios(self):
        w = inverse_sqrt_frequency_weights(PAPER_FREQS)
        assert w[1] / w[0] == pytest.approx(np.sqrt(0.982 / 0.001), rel=1e-6)

    def test_inverse_sqrt_more_moderate(self):
        # The whole point: sqrt weights have a much smaller dynamic range
        # (the inverse range is the sqrt range squared).
        wi = inverse_frequency_weights(PAPER_FREQS)
        ws = inverse_sqrt_frequency_weights(PAPER_FREQS)
        range_i = wi.max() / wi.min()
        range_s = ws.max() / ws.min()
        assert range_i == pytest.approx(range_s**2, rel=1e-6)
        assert range_i > 20 * range_s

    def test_most_frequent_class_weighs_one(self):
        for fn in (inverse_frequency_weights, inverse_sqrt_frequency_weights):
            w = fn(PAPER_FREQS)
            assert w[0] == pytest.approx(1.0)
            assert w[1] > w[2] > w[0]

    def test_paper_37x_tc_penalty(self):
        # "penalizes a false negative on a TC by roughly 37x more than a
        # false positive" — sqrt(f_BG / f_TC) with TC < 0.1%.
        freqs = np.array([0.9822, 0.00073, 0.017])
        w = inverse_sqrt_frequency_weights(freqs)
        assert tc_penalty_ratio(w) == pytest.approx(37.0, rel=0.05)

    def test_dispatch(self):
        for name in ("none", "inverse", "inverse_sqrt"):
            w = class_weights(PAPER_FREQS, name)
            assert w.shape == (3,)
        with pytest.raises(ValueError, match="strategy"):
            class_weights(PAPER_FREQS, "quadratic")

    def test_zero_frequency_floored(self):
        w = inverse_frequency_weights(np.array([1.0, 0.0]))
        assert np.isfinite(w).all()


class TestPixelWeightMap:
    def test_lookup(self):
        labels = np.array([[0, 1], [2, 0]])
        w = np.array([1.0, 10.0, 5.0])
        out = pixel_weight_map(labels, w)
        np.testing.assert_allclose(out, [[1, 10], [5, 1]])
        assert out.dtype == np.float32

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            pixel_weight_map(np.array([[3]]), np.ones(3))


class TestSegmentationLoss:
    def test_unweighted_all_bg_prediction_trap(self):
        # Predicting pure background: unweighted loss is tiny (98.2%
        # "accuracy"), weighted loss is much larger.
        rng = np.random.default_rng(0)
        labels = (rng.random((1, 16, 16)) < 0.02).astype(np.int64)  # ~2% class 1
        logits = np.zeros((1, 3, 16, 16))
        logits[:, 0] = 8.0  # confident BG everywhere
        t = Tensor(logits)
        freqs = np.bincount(labels.ravel(), minlength=3) / labels.size
        l_none = weighted_loss(t, labels, freqs, "none", normalization="mean")
        l_sqrt = weighted_loss(t, labels, freqs, "inverse_sqrt",
                               normalization="mean")
        assert l_sqrt.item() > 3 * l_none.item()

    def test_weighted_mean_normalization_stable_across_strategies(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 3, size=(1, 8, 8))
        logits = rng.normal(size=(1, 3, 8, 8))
        freqs = np.bincount(labels.ravel(), minlength=3) / labels.size
        losses = [weighted_loss(Tensor(logits), labels, freqs, s).item()
                  for s in ("none", "inverse", "inverse_sqrt")]
        # The loss a default Trainer takes is the inverse-sqrt weighted mean.
        trainer = Trainer(Conv2D(3, 3, 1), TrainConfig(), freqs)
        images = logits.astype(np.float32)
        direct = weighted_loss(trainer.model(Tensor(images)), labels, freqs,
                               "inverse_sqrt")
        assert trainer.compute_loss(images, labels).item() == direct.item()
        # weighted_mean keeps all strategies in the same ballpark.
        assert max(losses) / min(losses) < 5


class TestConfusionMatrix:
    def test_manual(self):
        pred = np.array([0, 1, 1, 2])
        true = np.array([0, 1, 2, 2])
        cm = confusion_matrix(pred, true, 3)
        expect = np.array([[1, 0, 0], [0, 1, 0], [0, 1, 1]])
        np.testing.assert_array_equal(cm, expect)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            confusion_matrix(np.zeros(3), np.zeros(4), 2)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            confusion_matrix(np.array([5]), np.array([0]), 3)


class TestIoU:
    def test_perfect_prediction(self):
        cm = np.diag([10, 5, 3])
        np.testing.assert_allclose(iou_per_class(cm), 1.0)
        assert mean_iou(cm) == 1.0

    def test_total_miss(self):
        cm = np.array([[0, 5], [5, 0]])
        np.testing.assert_allclose(iou_per_class(cm), 0.0)

    def test_known_value(self):
        # TP=6, FP=2, FN=3 -> IoU = 6/11.
        cm = np.array([[10, 3], [2, 6]])
        assert iou_per_class(cm)[1] == pytest.approx(6 / 11)

    def test_absent_class_is_nan_and_ignored(self):
        cm = np.array([[5, 0, 0], [0, 5, 0], [0, 0, 0]])
        ious = iou_per_class(cm)
        assert np.isnan(ious[2])
        assert mean_iou(cm) == 1.0

    def test_accuracy_trap(self):
        # All-BG prediction on 98.2% BG data: accuracy 98.2%, IoU useless.
        n = 1000
        true = np.zeros(n, dtype=int)
        true[:18] = 2
        pred = np.zeros(n, dtype=int)
        cm = confusion_matrix(pred, true, 3)
        assert pixel_accuracy(cm) == pytest.approx(0.982)
        assert mean_iou(cm) < 0.5


class TestSegmentationReport:
    def test_accumulates(self):
        rep = SegmentationReport(2, ("BG", "TC"))
        rep.update(np.array([0, 1]), np.array([0, 1]))
        rep.update(np.array([1, 1]), np.array([0, 1]))
        assert rep.cm.sum() == 4
        assert 0 < rep.mean_iou < 1
        s = rep.summary()
        assert set(s) == {"mean_iou", "accuracy", "iou"}
        assert "TC" in s["iou"]
