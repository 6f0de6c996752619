"""Four-rank training through the in-place gradient path is bit-identical
to the copying path.

The trainer under test exchanges through the engine's pack buffers and
updates with scratch-buffer optimizers; the reference runs the same
``DistributedTrainer`` loop with the copying exchange and updates of
``tests/copying_exchange.py``.  After every step the two must agree to the
bit, and the replicas must stay exactly in lockstep.
"""
import numpy as np
import pytest

from repro.comm import EngineConfig
from repro.core import CheckpointManager, DistributedTrainer, TrainConfig
from repro.core.networks import DeepLabConfig, DeepLabV3Plus
from tests.copying_exchange import CopyingEngine, copying_optimizer

RANKS = 4


def factory():
    return DeepLabV3Plus(DeepLabConfig(in_channels=4, width=0.05,
                                       aspp_dilations=(1, 2)),
                         rng=np.random.default_rng(3))


def batches(step, ranks):
    rng = np.random.default_rng(100 + step)
    return [(rng.normal(size=(1, 4, 8, 8)).astype(np.float32),
             rng.integers(0, 3, size=(1, 8, 8))) for _ in range(ranks)]


def pair(config, engine_config):
    """The trainer under test and its copying reference."""
    dut = DistributedTrainer(factory, RANKS, config, engine=engine_config)
    ref = DistributedTrainer(factory, RANKS, config,
                             engine=CopyingEngine(RANKS, engine_config))
    for t in ref.trainers:
        t.optimizer = copying_optimizer(t.model, config)
    return dut, ref


def assert_identical(dut, ref):
    assert dut.world_size == ref.world_size
    for a, b in zip(dut.trainers, ref.trainers):
        sa, sb = a.model.state_dict(), b.model.state_dict()
        assert sa.keys() == sb.keys()
        for k in sa:
            assert np.array_equal(sa[k], sb[k]), k
    assert dut.max_replica_divergence() == 0.0


def run(dut, ref, steps, start=0):
    for step in range(start, start + steps):
        got = dut.train_step(batches(step, dut.world_size))
        want = ref.train_step(batches(step, ref.world_size))
        assert got.per_rank_loss == want.per_rank_loss
        assert got.skipped == want.skipped
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
    config = TrainConfig(lr=0.02, weight_decay=1e-3, **overrides)
    dut, ref = pair(config, EngineConfig(bucket_bytes=bucket_bytes))
    run(dut, ref, steps=4)


def test_matches_copying_path_after_shrink():
    config = TrainConfig(lr=0.02)
    dut, ref = pair(config, EngineConfig())
    run(dut, ref, steps=2)
    dut.shrink([1])
    ref.shrink([1])
    run(dut, ref, steps=2, start=2)


def test_checkpoint_restore_continues_identically(tmp_path):
    # A fixed strategy: a restarted engine must not re-explore algorithms
    # whose sums round differently.
    engine_config = EngineConfig(autotune=False)
    config = TrainConfig(lr=0.02, weight_decay=1e-3)
    dut, ref = pair(config, engine_config)
    run(dut, ref, steps=2)
    manager = CheckpointManager(tmp_path)
    manager.save(dut.trainers[0], step=2)
    run(dut, ref, steps=2, start=2)

    restored = DistributedTrainer(factory, RANKS, config, engine=engine_config)
    for t in restored.trainers:
        manager.load(t)
    for step in range(2, 4):
        restored.train_step(batches(step, RANKS))
    assert restored.max_replica_divergence() == 0.0
    for a, b in zip(restored.trainers, dut.trainers):
        for (name, p), (_, q) in zip(a.model.named_parameters(),
                                     b.model.named_parameters()):
            assert np.array_equal(p.master_value(), q.master_value()), name
    final, want = (restored.trainers[0].model.state_dict(),
                   dut.trainers[0].model.state_dict())
    for k in want:
        assert np.array_equal(final[k], want[k]), k
