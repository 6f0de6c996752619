"""Training loop: convergence, mixed precision, weighting effects."""
import numpy as np
import pytest

from repro.climate import ClimateDataset, Grid, class_frequencies
from repro.core import TrainConfig, Trainer, build_optimizer
from repro.core.networks import Tiramisu, TiramisuConfig
from repro.core.optim import LARC, LARS, SGD, Adam, GradientLag
from repro.framework.dtypes import FP16

GRID = Grid(16, 24)


@pytest.fixture(scope="module")
def dataset():
    return ClimateDataset.synthesize(GRID, num_samples=10, seed=3, channels=4)


def tiny_model(seed=42, dropout=0.0):
    return Tiramisu(TiramisuConfig(in_channels=4, base_filters=8, growth=4,
                                   down_layers=(2, 2), bottleneck_layers=2,
                                   kernel=3, dropout=dropout),
                    rng=np.random.default_rng(seed))


class TestBuildOptimizer:
    @pytest.mark.parametrize("name,cls", [("sgd", SGD), ("adam", Adam),
                                          ("lars", LARS), ("larc", LARC)])
    def test_dispatch(self, name, cls):
        opt = build_optimizer(tiny_model(), TrainConfig(optimizer=name))
        assert isinstance(opt, cls)

    def test_lag_wrapping(self):
        opt = build_optimizer(tiny_model(), TrainConfig(gradient_lag=1))
        assert isinstance(opt, GradientLag)

    def test_unknown_raises(self):
        with pytest.raises(ValueError):
            build_optimizer(tiny_model(), TrainConfig(optimizer="lion"))

    def test_bad_precision_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(precision="fp8")


class TestTrainConfigValidation:
    """Bad optimizer/weighting strings fail at construction, not deep in
    build_optimizer / loss setup."""

    def test_unknown_optimizer_rejected_at_construction(self):
        with pytest.raises(ValueError, match=r"unknown optimizer 'lion'"):
            TrainConfig(optimizer="lion")

    def test_optimizer_error_names_valid_choices(self):
        with pytest.raises(ValueError, match=r"sgd.*adam.*lars.*larc"):
            TrainConfig(optimizer="rmsprop")

    def test_unknown_weighting_rejected_at_construction(self):
        with pytest.raises(ValueError,
                           match=r"unknown weighting strategy 'focal'"):
            TrainConfig(weighting="focal")

    def test_weighting_error_names_valid_choices(self):
        with pytest.raises(ValueError, match=r"none.*inverse.*inverse_sqrt"):
            TrainConfig(weighting="sqrt")

    @pytest.mark.parametrize("optimizer", ["sgd", "adam", "lars", "larc"])
    def test_valid_optimizers_accepted(self, optimizer):
        assert TrainConfig(optimizer=optimizer).optimizer == optimizer

    @pytest.mark.parametrize("weighting", ["none", "inverse", "inverse_sqrt"])
    def test_valid_weightings_accepted(self, weighting):
        assert TrainConfig(weighting=weighting).weighting == weighting


class TestTraining:
    def test_loss_decreases(self, dataset):
        freqs = class_frequencies(dataset.labels)
        tr = Trainer(tiny_model(), TrainConfig(lr=0.05, optimizer="larc"), freqs)
        losses = []
        rng = np.random.default_rng(0)
        for _ in range(4):
            for imgs, labs in dataset.batches(dataset.splits.train, 2, rng):
                losses.append(tr.train_step(imgs, labs).loss)
        assert np.mean(losses[-3:]) < np.mean(losses[:3])

    def test_history_recorded(self, dataset):
        tr = Trainer(tiny_model(), TrainConfig(lr=0.01))
        imgs, labs = next(dataset.batches(dataset.splits.train, 2))
        tr.train_step(imgs, labs)
        assert len(tr.history) == 1
        assert tr.history[0].grad_norm > 0

    def test_evaluate_returns_report(self, dataset):
        tr = Trainer(tiny_model(), TrainConfig(lr=0.01))
        rep = tr.evaluate(dataset.batches(dataset.splits.validation, 1,
                                          drop_last=False))
        assert 0.0 <= rep.accuracy <= 1.0
        assert rep.cm.sum() == len(dataset.splits.validation) * GRID.nlat * GRID.nlon

    def test_predict_shape(self, dataset):
        tr = Trainer(tiny_model(), TrainConfig())
        preds = tr.predict(dataset.images[:2])
        assert preds.shape == (2, 16, 24)
        assert preds.min() >= 0 and preds.max() < 3

    def test_weighted_training_finds_minority_classes(self, dataset):
        # With inverse-sqrt weights, the network should predict some
        # non-background pixels after training; unweighted tends to collapse.
        freqs = class_frequencies(dataset.labels)
        tr = Trainer(tiny_model(7), TrainConfig(lr=0.1, optimizer="larc",
                                                weighting="inverse_sqrt"), freqs)
        rng = np.random.default_rng(1)
        for _ in range(6):
            for imgs, labs in dataset.batches(dataset.splits.train, 2, rng):
                tr.train_step(imgs, labs)
        preds = tr.predict(dataset.images[dataset.splits.train])
        assert (preds != 0).mean() > 0.001


class TestMixedPrecision:
    def test_fp16_steps_run(self, dataset):
        freqs = class_frequencies(dataset.labels)
        tr = Trainer(tiny_model(), TrainConfig(lr=0.02, precision="fp16",
                                               optimizer="sgd"), freqs)
        assert tr.scaler is not None
        imgs, labs = next(dataset.batches(dataset.splits.train, 2))
        result = tr.train_step(imgs, labs)
        assert np.isfinite(result.loss)

    def test_fp16_params_have_masters(self, dataset):
        tr = Trainer(tiny_model(), TrainConfig(precision="fp16"))
        conv_params = [p for p in tr.model.parameters() if p.data.ndim >= 2]
        assert all(p.master is not None for p in conv_params)
        assert all(p.data.dtype == FP16 for p in conv_params)

    def test_overflow_skips_step(self, dataset):
        # Absurd static loss scale forces an overflow in fp16 grads.
        tr = Trainer(tiny_model(), TrainConfig(
            lr=0.01, precision="fp16", loss_scale=2.0**24,
            dynamic_loss_scale=True))
        imgs, labs = next(dataset.batches(dataset.splits.train, 2))
        before = {n: p.master_value().copy()
                  for n, p in tr.model.named_parameters()}
        # The overflow is the point of the test: assert NumPy's report of
        # it instead of leaking it into the run's warning summary.
        with pytest.warns(RuntimeWarning, match="overflow encountered in cast"):
            result = tr.train_step(imgs, labs)
        if result.skipped:
            after = {n: p.master_value() for n, p in tr.model.named_parameters()}
            for k in before:
                np.testing.assert_array_equal(before[k], after[k])
            assert tr.scaler.scale < 2.0**24

    def test_inverse_weights_overflow_more_than_sqrt(self, dataset):
        # Section V-B1's instability: inverse-frequency weights blow up FP16
        # gradients at high loss scale more often than inverse-sqrt weights.
        freqs = np.array([0.98, 0.001, 0.019])

        def overflows(strategy):
            tr = Trainer(tiny_model(11), TrainConfig(
                lr=0.01, precision="fp16", weighting=strategy,
                loss_scale=2.0**22, dynamic_loss_scale=True), freqs)
            rng = np.random.default_rng(2)
            count = 0
            for _ in range(2):
                for imgs, labs in dataset.batches(dataset.splits.train, 2, rng):
                    if tr.train_step(imgs, labs).skipped:
                        count += 1
            return count

        # Overflowed FP16 gradients reach the cast back to half and, as
        # inf - inf, the wgrad/dgrad GEMMs: both reports are expected here.
        with pytest.warns(RuntimeWarning, match="overflow encountered in cast"), \
                pytest.warns(RuntimeWarning,
                             match="invalid value encountered in (matmul|reduce)"):
            assert overflows("inverse") >= overflows("inverse_sqrt")
