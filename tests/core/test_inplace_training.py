"""Four-rank training on one shared parameter set, through the in-place
gradient path, is bit-identical to fully replicated, copying training.

The trainer under test keeps one model, one optimizer and one loss scaler
for every rank, exchanges through the engine's pack buffers and updates
with scratch-buffer optimizers.  The reference is the
``ReplicatedTrainer`` of ``tests/copying_exchange.py``: one full trainer
per rank, with the copying exchange and updates.  After every step the
shared model must equal the reference's rank 0 replica to the bit (batch-norm
statistics included), and every rank's loss must match.
"""
import numpy as np
import pytest

from repro.comm import EngineConfig
from repro.core import CheckpointManager, DistributedTrainer, TrainConfig
from repro.core.networks import (DeepLabConfig, DeepLabV3Plus, Tiramisu,
                                 TiramisuConfig)
from tests.copying_exchange import CopyingEngine, ReplicatedTrainer

RANKS = 4


def factory():
    return DeepLabV3Plus(DeepLabConfig(in_channels=4, width=0.05,
                                       aspp_dilations=(1, 2)),
                         rng=np.random.default_rng(3))


def dropout_factory():
    return Tiramisu(TiramisuConfig(in_channels=4, base_filters=8, growth=4,
                                   down_layers=(2,), bottleneck_layers=2,
                                   kernel=3, dropout=0.2),
                    rng=np.random.default_rng(3))


def small_map_dropout_factory():
    """A dropout Tiramisu whose ranks stack: on 4x4 maps one sample's
    activations (27 kB) weigh less than its parameters (51 kB)."""
    return Tiramisu(TiramisuConfig(in_channels=4, base_filters=8, growth=4,
                                   down_layers=(2,), bottleneck_layers=2,
                                   kernel=5, dropout=0.2),
                    rng=np.random.default_rng(3))


def batches(step, ranks, hw=(8, 8), per_rank=1):
    rng = np.random.default_rng(100 + step)
    return [(rng.normal(size=(per_rank, 4) + hw).astype(np.float32),
             rng.integers(0, 3, size=(per_rank,) + hw)) for _ in range(ranks)]


def pair(config, engine_config, model_factory=factory):
    """The trainer under test and its replicated, copying reference."""
    dut = DistributedTrainer(model_factory, RANKS, config,
                             engine=engine_config)
    ref = ReplicatedTrainer(model_factory, RANKS, config,
                            CopyingEngine(RANKS, engine_config))
    return dut, ref


def assert_identical(dut, ref):
    assert dut.world_size == ref.world_size
    sa, sb = dut.model.state_dict(), ref.trainers[0].model.state_dict()
    assert sa.keys() == sb.keys()
    for k in sa:
        assert np.array_equal(sa[k], sb[k]), k
    assert dut.max_buffer_divergence() == ref.max_buffer_divergence()
    assert dut.max_replica_divergence() == 0.0


def run(dut, ref, steps, start=0, **geometry):
    for step in range(start, start + steps):
        got = dut.train_step(batches(step, dut.world_size, **geometry))
        want_losses, want_skipped = ref.train_step(
            batches(step, ref.world_size, **geometry))
        assert got.per_rank_loss == want_losses
        assert got.skipped == want_skipped
        assert_identical(dut, ref)


KB = 1024
CASES = {
    "sgd-momentum-1kB": (dict(optimizer="sgd", momentum=0.9), KB),
    "lars-default": (dict(optimizer="lars"), EngineConfig().bucket_bytes),
    "larc-fp16-64MB": (dict(optimizer="larc", precision="fp16"), 64 << 20),
    "larc-lag1-1kB": (dict(optimizer="larc", gradient_lag=1), KB),
}


# The FP16 case overflows on its first step (and skips it) by design.
@pytest.mark.filterwarnings("ignore:overflow encountered in cast")
@pytest.mark.parametrize("case", sorted(CASES))
def test_matches_copying_path(case):
    overrides, bucket_bytes = CASES[case]
    config = TrainConfig(lr=0.02, **overrides)
    dut, ref = pair(config, EngineConfig(bucket_bytes=bucket_bytes))
    run(dut, ref, steps=4)


def test_dropout_draws_match_per_rank_replicas():
    # Each replica drew its masks from its own generator; the shared model
    # must hand each rank its own generator position.
    dut, ref = pair(TrainConfig(lr=0.02), EngineConfig(), dropout_factory)
    run(dut, ref, steps=3)


def test_matches_copying_path_after_shrink():
    config = TrainConfig(lr=0.02)
    dut, ref = pair(config, EngineConfig())
    run(dut, ref, steps=2)
    dut.shrink([1], lr_scaling="none")
    ref.shrink([1])
    run(dut, ref, steps=2, start=2)


def test_matches_after_rank0_dies():
    config = TrainConfig(lr=0.02)
    dut, ref = pair(config, EngineConfig(), dropout_factory)
    run(dut, ref, steps=2)
    dut.shrink([0], lr_scaling="linear")
    ref.shrink([0], lr_factor=0.75)
    run(dut, ref, steps=2, start=2)


def test_checkpoint_restore_continues_identically(tmp_path):
    # A fixed strategy: a restarted engine must not re-explore algorithms
    # whose sums round differently.
    engine_config = EngineConfig(autotune=False)
    config = TrainConfig(lr=0.02)
    dut, ref = pair(config, engine_config)
    run(dut, ref, steps=2)
    manager = CheckpointManager(tmp_path)
    manager.save(dut.trainer, step=2)
    run(dut, ref, steps=2, start=2)

    restored = DistributedTrainer(factory, RANKS, config, engine=engine_config)
    manager.load(restored.trainer)
    restored.broadcast_buffers()
    replayed = ReplicatedTrainer(factory, RANKS, config,
                                 CopyingEngine(RANKS, engine_config))
    for t in replayed.trainers:
        manager.load(t)
    run(restored, replayed, steps=2, start=2)
    final, want = restored.model.state_dict(), dut.model.state_dict()
    for k in want:
        assert np.array_equal(final[k], want[k]), k


# The ranks stack into one forward/backward (one batch-norm slice, dropout
# generator, loss normalization and gradient sum per rank); each case
# asserts the rule stacked them, so none falls back to one rank at a time.
STACKED = {
    "dropout-small-map": (small_map_dropout_factory, dict(hw=(4, 4))),
    "two-samples-per-rank": (factory, dict(per_rank=2)),
    "dropout-two-samples-per-rank": (small_map_dropout_factory,
                                     dict(hw=(4, 4), per_rank=2)),
}


@pytest.mark.parametrize("case", sorted(STACKED))
def test_stacked_ranks_match_per_rank_replicas(case):
    model_factory, geometry = STACKED[case]
    dut, ref = pair(TrainConfig(lr=0.02), EngineConfig(), model_factory)
    assert dut.stack_width(batches(0, RANKS, **geometry)) == RANKS
    run(dut, ref, steps=3, **geometry)


def test_stacked_dropout_matches_after_rank0_dies():
    geometry = dict(hw=(4, 4))
    dut, ref = pair(TrainConfig(lr=0.02), EngineConfig(),
                    small_map_dropout_factory)
    run(dut, ref, steps=2, **geometry)
    dut.shrink([0], lr_scaling="linear")
    ref.shrink([0], lr_factor=0.75)
    assert dut.stack_width(batches(2, RANKS - 1, **geometry)) == RANKS - 1
    run(dut, ref, steps=2, start=2, **geometry)
