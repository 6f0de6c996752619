"""Distributed data-parallel invariants."""
import numpy as np
import pytest

from repro.climate import ClimateDataset, Grid, class_frequencies
from repro.comm import CommStrategy, EngineConfig, GradientExchangeEngine
from repro.comm import api as comm_api
from repro.comm.simmpi import World
from repro.core import DistributedTrainer, TrainConfig, Trainer
from repro.core.optim.base import Optimizer
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

    def test_world_size_validation(self):
        with pytest.raises(ValueError):
            DistributedTrainer(tiny_factory(), 0, TrainConfig())

    def test_same_seed_epochs_are_byte_identical(self, dataset):
        """The shard shuffles and the dropout masks draw from generators
        seeded by the caller, so a rerun reproduces every loss and weight."""
        def run():
            def make():
                return Tiramisu(TiramisuConfig(in_channels=4, base_filters=8,
                                               growth=4, down_layers=(2,),
                                               bottleneck_layers=2, kernel=3,
                                               dropout=0.2),
                                rng=np.random.default_rng(3))
            dt = DistributedTrainer(make, 2, TrainConfig(lr=0.05,
                                                         optimizer="larc"))
            results = dt.train_epoch(dataset, 1, np.random.default_rng(11),
                                     steps=3)
            losses = np.array([r.per_rank_loss for r in results])
            return losses, dt.model.state_dict()

        losses_a, state_a = run()
        losses_b, state_b = run()
        assert losses_a.tobytes() == losses_b.tobytes()
        assert state_a.keys() == state_b.keys()
        for name, value in state_a.items():
            assert value.tobytes() == state_b[name].tobytes(), name

    def test_every_bucket_is_announced_by_every_rank(self, dataset,
                                                     monkeypatch):
        # The world checks every collective: each bucket's allreduce is
        # announced once per rank, so a divergent schedule would raise.
        announced = []
        real = World.announce_collective

        def spy(world, rank, op, *args, **kwargs):
            announced.append((rank, op))
            return real(world, rank, op, *args, **kwargs)

        monkeypatch.setattr(World, "announce_collective", spy)
        dt = DistributedTrainer(tiny_factory(), 4, TrainConfig(lr=0.01))
        results = dt.train_epoch(dataset, 1, np.random.default_rng(4), steps=2)
        buckets = sum(r.exchange.fusion.num_collectives for r in results)
        for rank in range(4):
            assert sum(r == rank and op.startswith("allreduce.")
                       for r, op in announced) == buckets


class TestLockstepCheck:
    """The lockstep invariant is checked on the exchange's output: a
    strategy that hands one rank a result one ulp off must be caught, in
    any bucket."""

    @staticmethod
    def divergence(dataset, monkeypatch, perturb=None):
        """Three steps through ring; ``perturb`` ("first" or "last") puts
        rank 1's last value in that bucket of the second step one ulp
        off."""
        ring = comm_api.get_strategy("ring")
        calls, perturb_at = [0], [None]

        def run_fn(world, buffers, average, tag, **params):
            results = ring.run_fn(world, buffers, average, tag, **params)
            calls[0] += 1
            if calls[0] == perturb_at[0]:
                results[1][-1] = np.nextafter(results[1][-1], np.inf)
            return results

        monkeypatch.setitem(comm_api._REGISTRY, "ring", CommStrategy(
            "ring", run_fn, ring.default_tag, ring.model_fn))
        dt = DistributedTrainer(
            tiny_factory(), 2, TrainConfig(lr=0.05), engine=EngineConfig(
                strategies=("ring",), autotune=False, bucket_bytes=4096))
        for step in range(3):
            result = dt.train_step([(dataset.images[i:i + 1],
                                     dataset.labels[i:i + 1])
                                    for i in (2 * step, 2 * step + 1)])
            buckets = result.exchange.fusion.num_collectives
            assert buckets > 1
            if step == 0 and perturb:
                perturb_at[0] = buckets + (1 if perturb == "first"
                                           else buckets)
        return dt.max_replica_divergence()

    @pytest.mark.parametrize("bucket", ["first", "last"])
    def test_one_ulp_on_one_rank_is_caught(self, dataset, monkeypatch,
                                           bucket):
        assert self.divergence(dataset, monkeypatch, perturb=bucket) > 0.0

    def test_unperturbed_strategy_reads_exactly_zero(self, dataset,
                                                     monkeypatch):
        assert self.divergence(dataset, monkeypatch) == 0.0


class TestOneParameterSet:
    """One model, one optimizer and one loss scaler serve every rank."""

    def test_counts_on_a_four_rank_three_step_run(self, dataset,
                                                  monkeypatch):
        factory_calls, step_calls = [0], [0]
        make = tiny_factory()

        def counting_factory():
            factory_calls[0] += 1
            return make()

        optimizer_step = Optimizer.step

        def counting_step(self):
            step_calls[0] += 1
            optimizer_step(self)

        monkeypatch.setattr(Optimizer, "step", counting_step)
        dt = DistributedTrainer(counting_factory, 4, TrainConfig(lr=0.05))
        for step in range(3):
            idx = range(4 * step, 4 * step + 4)
            result = dt.train_step([(dataset.images[i:i + 1],
                                     dataset.labels[i:i + 1]) for i in idx])
            assert not result.skipped
        assert step_calls[0] == 3
        assert factory_calls[0] == 1
        held = sum(p.size for t in dt.trainers for p in t.model.parameters())
        assert held == make().num_parameters()

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_partial_overflow_backs_off_once(self, dataset):
        cfg = TrainConfig(lr=0.01, optimizer="sgd", precision="fp16",
                          loss_scale=16)
        dt = DistributedTrainer(tiny_factory(), 2, cfg)
        images, labels = dataset.images[:2], dataset.labels[:2]
        clean = dt.train_step([(images[:1], labels[:1]),
                               (images[1:], labels[1:])])
        assert not clean.skipped
        poisoned = images[1:].copy()
        poisoned[0, 0, 0, 0] = np.inf
        result = dt.train_step([(images[:1], labels[:1]),
                                (poisoned, labels[1:])])
        assert result.skipped
        scaler = dt.trainer.scaler
        assert scaler.scale == 8.0
        assert scaler._good_steps == 0
        assert scaler.num_overflows == 1


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
