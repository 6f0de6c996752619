"""Distributed data-parallel invariants."""
import numpy as np
import pytest

from repro.climate import ClimateDataset, Grid, class_frequencies
from repro.comm import GradientExchangeEngine
from repro.core import DistributedTrainer, TrainConfig, Trainer
from repro.core.networks import Tiramisu, TiramisuConfig
from repro.framework import Tensor
from repro.framework.layers import Conv2D, ReLU, Sequential
from repro.framework.losses import weighted_cross_entropy

GRID = Grid(16, 24)


@pytest.fixture(scope="module")
def dataset():
    return ClimateDataset.synthesize(GRID, num_samples=12, seed=5, channels=4)


def tiny_factory(seed=42):
    def make():
        return Tiramisu(TiramisuConfig(in_channels=4, base_filters=8, growth=4,
                                       down_layers=(2, 2), bottleneck_layers=2,
                                       kernel=3, dropout=0.0),
                        rng=np.random.default_rng(seed))
    return make


def convnet_factory(seed=7):
    """BN-free, dropout-free net: exact single-process equivalence holds."""
    def make():
        rng = np.random.default_rng(seed)
        return Sequential(
            Conv2D(4, 8, 3, rng=rng, name="c1"), ReLU(),
            Conv2D(8, 3, 1, rng=rng, name="c2"),
        )
    return make


class TestReplicaConsistency:
    def test_parameters_stay_identical(self, dataset):
        cfg = TrainConfig(lr=0.05, optimizer="larc")
        freqs = class_frequencies(dataset.labels)
        dt = DistributedTrainer(tiny_factory(), 4, cfg, freqs)
        dt.train_epoch(dataset, 1, np.random.default_rng(0), steps=3)
        assert dt.max_replica_divergence() == 0.0

    def test_bn_buffers_diverge_by_design(self, dataset):
        cfg = TrainConfig(lr=0.05)
        dt = DistributedTrainer(tiny_factory(), 2, cfg)
        dt.train_epoch(dataset, 1, np.random.default_rng(0), steps=2)
        assert dt.max_buffer_divergence() > 0.0

    def test_nondeterministic_factory_rejected(self):
        counter = [0]

        def bad_factory():
            counter[0] += 1
            return Sequential(Conv2D(4, 3, 1, rng=np.random.default_rng(counter[0])))

        with pytest.raises(ValueError, match="deterministic"):
            DistributedTrainer(bad_factory, 2, TrainConfig())

    def test_world_size_validation(self):
        with pytest.raises(ValueError):
            DistributedTrainer(tiny_factory(), 0, TrainConfig())


class TestGlobalBatchEquivalence:
    def test_nrank_matches_single_process_global_batch(self, dataset):
        """N ranks on shards == 1 process on the concatenated batch.

        Requires a BN/dropout-free model (local batch norm breaks exactness,
        as it does in real Horovod training) and uniform loss weighting with
        equal shard sizes.
        """
        n = 3
        imgs = dataset.images[:n * 2]
        labs = dataset.labels[:n * 2]
        cfg = TrainConfig(lr=0.1, optimizer="sgd", momentum=0.9,
                          weight_decay=0.0, weighting="none")

        # Distributed: each rank takes 2 samples.
        dt = DistributedTrainer(convnet_factory(), n, cfg)
        batches = [(imgs[2 * r: 2 * r + 2], labs[2 * r: 2 * r + 2])
                   for r in range(n)]
        dt.train_step(batches)

        # Single process on the full batch of 6.
        single = Trainer(convnet_factory()(), cfg)
        single.train_step(imgs, labs)

        for (name, p_dist), (_, p_single) in zip(
            dt.model.named_parameters(), single.model.named_parameters()
        ):
            np.testing.assert_allclose(p_dist.master_value(),
                                       p_single.master_value(),
                                       rtol=1e-4, atol=1e-6)

    def test_mean_loss_matches_global_loss(self, dataset):
        n = 2
        imgs = dataset.images[:4]
        labs = dataset.labels[:4]
        cfg = TrainConfig(lr=0.01, optimizer="sgd", weighting="none")
        dt = DistributedTrainer(convnet_factory(), n, cfg)
        res = dt.train_step([(imgs[:2], labs[:2]), (imgs[2:], labs[2:])])

        model = convnet_factory()()
        logits = model(Tensor(imgs.astype(np.float32)))
        global_loss = weighted_cross_entropy(logits, labs).item()
        assert res.mean_loss == pytest.approx(global_loss, rel=1e-5)


class TestStepMechanics:
    def test_exchange_report_attached(self, dataset):
        cfg = TrainConfig(lr=0.01)
        dt = DistributedTrainer(tiny_factory(), 2, cfg)
        res = dt.train_epoch(dataset, 1, np.random.default_rng(1), steps=1)[0]
        assert res.exchange is not None
        assert res.exchange.data_bytes > 0
        assert len(res.per_rank_loss) == 2

    def test_wrong_batch_count_raises(self, dataset):
        dt = DistributedTrainer(tiny_factory(), 2, TrainConfig())
        with pytest.raises(ValueError, match="rank batches"):
            dt.train_step([(dataset.images[:1], dataset.labels[:1])])

    def test_default_exchange_is_the_engine(self, dataset):
        # No engine= argument: the step still runs through the engine, the
        # only exchange path, and every bucket gets a strategy decision.
        dt = DistributedTrainer(tiny_factory(), 2, TrainConfig(lr=0.01))
        assert isinstance(dt.engine, GradientExchangeEngine)
        res = dt.train_epoch(dataset, 1, np.random.default_rng(2), steps=1)[0]
        assert sorted(res.exchange.decisions) == list(
            range(res.exchange.fusion.num_collectives))
        assert dt.max_replica_divergence() == 0.0

    def test_fp16_distributed_step(self, dataset):
        freqs = class_frequencies(dataset.labels)
        cfg = TrainConfig(lr=0.01, precision="fp16", optimizer="sgd")
        dt = DistributedTrainer(tiny_factory(), 2, cfg, freqs)
        res = dt.train_epoch(dataset, 1, np.random.default_rng(3), steps=1)[0]
        assert np.isfinite(res.mean_loss)
        if not res.skipped:
            assert dt.max_replica_divergence() == 0.0

    def test_losses_decrease_over_epoch(self, dataset):
        freqs = class_frequencies(dataset.labels)
        cfg = TrainConfig(lr=0.05, optimizer="larc")
        dt = DistributedTrainer(tiny_factory(), 2, cfg, freqs)
        all_losses = []
        for _ in range(4):
            results = dt.train_epoch(dataset, 1, np.random.default_rng(4))
            all_losses.extend(r.mean_loss for r in results)
        assert np.mean(all_losses[-2:]) < np.mean(all_losses[:2])
