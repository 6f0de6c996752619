"""The exchange engine as the trainer's data plane (Section VIII-B)."""
import numpy as np
import pytest

from repro.climate import ClimateDataset, Grid, class_frequencies
from repro.comm import EngineConfig, EngineReport, GradientExchangeEngine
from repro.core import CheckpointManager, DistributedTrainer, TrainConfig
from repro.core.networks import Tiramisu, TiramisuConfig

GRID = Grid(16, 24)


@pytest.fixture(scope="module")
def dataset():
    return ClimateDataset.synthesize(GRID, num_samples=12, seed=19, channels=4)


def factory(seed=42):
    def make():
        return Tiramisu(TiramisuConfig(in_channels=4, base_filters=8, growth=4,
                                       down_layers=(2, 2), bottleneck_layers=2,
                                       kernel=3, dropout=0.0),
                        rng=np.random.default_rng(seed))
    return make


class TestEngineTraining:
    """The adaptive exchange engine as the trainer's data plane."""

    @pytest.mark.parametrize("compression", [None, "topk", "int8"])
    def test_replicas_stay_identical(self, dataset, compression):
        freqs = class_frequencies(dataset.labels)
        cfg = EngineConfig(compression=compression, compression_ratio=0.1)
        dt = DistributedTrainer(factory(), 3,
                                TrainConfig(lr=0.02, optimizer="sgd"),
                                freqs, engine=cfg)
        dt.train_epoch(dataset, 1, np.random.default_rng(0), steps=3)
        assert dt.max_replica_divergence() == 0.0

    def test_config_auto_wrapped(self, dataset):
        freqs = class_frequencies(dataset.labels)
        dt = DistributedTrainer(factory(), 2,
                                TrainConfig(lr=0.02, optimizer="sgd"),
                                freqs, engine=EngineConfig())
        assert isinstance(dt.engine, GradientExchangeEngine)
        assert dt.engine.world_size == 2

    def test_engine_report_surfaces(self, dataset):
        freqs = class_frequencies(dataset.labels)
        dt = DistributedTrainer(factory(), 2,
                                TrainConfig(lr=0.02, optimizer="sgd"),
                                freqs, engine=EngineConfig())
        r = dt.train_epoch(dataset, 1, np.random.default_rng(5), steps=1)[0]
        assert isinstance(r.exchange, EngineReport)
        assert r.exchange.decisions  # every bucket recorded its algorithm
        assert r.exchange.fusion.num_collectives >= 1

    def test_fusion_cuts_collectives_vs_tensor_count(self, dataset):
        freqs = class_frequencies(dataset.labels)
        dt = DistributedTrainer(factory(), 2,
                                TrainConfig(lr=0.02, optimizer="sgd"),
                                freqs, engine=EngineConfig())
        r = dt.train_epoch(dataset, 1, np.random.default_rng(6), steps=1)[0]
        num_tensors = sum(1 for p in dt.trainers[0].model.parameters())
        assert r.exchange.fusion.num_collectives * 4 <= num_tensors

    def test_compressed_engine_cuts_bytes(self, dataset):
        freqs = class_frequencies(dataset.labels)
        dense = DistributedTrainer(factory(), 2,
                                   TrainConfig(lr=0.02, optimizer="sgd"),
                                   freqs, engine=EngineConfig())
        sparse = DistributedTrainer(
            factory(), 2, TrainConfig(lr=0.02, optimizer="sgd"), freqs,
            engine=EngineConfig(compression="topk", compression_ratio=0.01))
        rd = dense.train_epoch(dataset, 1, np.random.default_rng(7), steps=1)[0]
        rs = sparse.train_epoch(dataset, 1, np.random.default_rng(7), steps=1)[0]
        assert rs.exchange.wire_bytes < rd.exchange.wire_bytes / 10

    def test_loss_decreases_with_engine_compression(self, dataset):
        freqs = class_frequencies(dataset.labels)
        dt = DistributedTrainer(
            factory(7), 2, TrainConfig(lr=0.02, optimizer="larc"), freqs,
            engine=EngineConfig(compression="topk", compression_ratio=0.2))
        losses = []
        for _ in range(4):
            results = dt.train_epoch(dataset, 1, np.random.default_rng(1))
            losses.extend(r.mean_loss for r in results)
        assert np.mean(losses[-3:]) < np.mean(losses[:3])

    def test_residuals_accumulate_per_rank(self, dataset):
        freqs = class_frequencies(dataset.labels)
        cfg = EngineConfig(compression="topk", compression_ratio=0.05)
        dt = DistributedTrainer(factory(), 2,
                                TrainConfig(lr=0.02, optimizer="sgd"),
                                freqs, engine=cfg)
        dt.train_epoch(dataset, 1, np.random.default_rng(3), steps=1)
        name = dt.trainers[0].model.parameters()[0].name
        state = dt.comm_state()
        for rank in range(2):
            assert np.linalg.norm(state[f"rank{rank}.{name}"]) > 0

    def test_comm_state_rides_checkpoints(self, dataset, tmp_path):
        freqs = class_frequencies(dataset.labels)
        cfg = EngineConfig(compression="topk", compression_ratio=0.05)
        dt = DistributedTrainer(factory(), 2,
                                TrainConfig(lr=0.02, optimizer="sgd"),
                                freqs, engine=cfg)
        dt.train_epoch(dataset, 1, np.random.default_rng(8), steps=2)
        mgr = CheckpointManager(tmp_path)
        mgr.save(dt.trainers[0], step=2, extra_arrays=dt.comm_state())

        fresh = DistributedTrainer(factory(), 2,
                                   TrainConfig(lr=0.02, optimizer="sgd"),
                                   freqs, engine=cfg)
        fresh.load_comm_state(mgr.load_extra_arrays())
        saved = dt.comm_state()
        restored = fresh.comm_state()
        assert sorted(restored) == sorted(saved)
        for key, value in saved.items():
            np.testing.assert_array_equal(restored[key], value)

    def test_shrink_keeps_survivor_residuals(self, dataset):
        freqs = class_frequencies(dataset.labels)
        cfg = EngineConfig(compression="topk", compression_ratio=0.05)
        dt = DistributedTrainer(factory(), 3,
                                TrainConfig(lr=0.02, optimizer="sgd"),
                                freqs, engine=cfg)
        dt.train_epoch(dataset, 1, np.random.default_rng(9), steps=1)
        before = dt.comm_state()
        dt.shrink([1])  # survivors: old ranks 0 and 2
        after = dt.comm_state()
        assert dt.engine.world_size == 2
        tensors = sorted({k.partition(".")[2] for k in before})
        for t in tensors:
            np.testing.assert_array_equal(after[f"rank0.{t}"],
                                          before[f"rank0.{t}"])
            np.testing.assert_array_equal(after[f"rank1.{t}"],
                                          before[f"rank2.{t}"])
        assert f"rank2.{tensors[0]}" not in after
        # Training continues on the shrunk world with replicas in lockstep.
        dt.train_epoch(dataset, 1, np.random.default_rng(10), steps=1)
        assert dt.max_replica_divergence() == 0.0
