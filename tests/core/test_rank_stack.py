"""The rank-stacked step, counted: how many forwards a step runs, how many
gradients the exchange copies, and where the gradients live.

``DistributedTrainer`` stacks its ranks' batches into one forward/backward
when one sample's activations weigh no more than the model's parameters,
and otherwise runs one rank per stack.  On the FP32 dense path every rank's
gradients are written straight into the engine's bucket buffers, so the
exchange packs nothing.  Both networks are the e2e benchmark's training
networks at their benchmark geometries.
"""
import numpy as np
import pytest

from repro.comm import EngineConfig
from repro.core import DistributedTrainer, TrainConfig
from repro.core.networks import (DeepLabConfig, DeepLabV3Plus, Tiramisu,
                                 TiramisuConfig)
from repro.framework import ShapeProbe

RANKS = 4
STEPS = 2


def deeplab():
    return DeepLabV3Plus(DeepLabConfig(in_channels=16, width=0.18,
                                       aspp_dilations=(1, 2, 3)),
                         rng=np.random.default_rng(1234))


def tiramisu():
    return Tiramisu(TiramisuConfig(in_channels=16, base_filters=16, growth=8,
                                   down_layers=(2, 2), bottleneck_layers=2,
                                   kernel=3),
                    rng=np.random.default_rng(1234))


# name -> (factory, grid, forwards per step)
NETWORKS = {
    "train_exchange-deeplab": (deeplab, (8, 8), 1),
    "train_conv-tiramisu": (tiramisu, (36, 56), RANKS),
}


def rank_batches(step, hw):
    rng = np.random.default_rng(step)
    return [(rng.normal(size=(1, 16) + hw).astype(np.float32),
             rng.integers(0, 3, size=(1,) + hw)) for _ in range(RANKS)]


@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_step_mechanism_counts(name):
    make, hw, forwards = NETWORKS[name]
    dut = DistributedTrainer(make, RANKS, TrainConfig(lr=0.01),
                             engine=EngineConfig())
    model_forward = dut.model.forward
    calls = [0]

    def counting_forward(x):
        # The stacking rule's one symbolic trace per input shape runs no
        # arithmetic and is not counted.
        calls[0] += not isinstance(x, ShapeProbe)
        return model_forward(x)

    dut.model.forward = counting_forward
    local_gradients = dut.trainer.local_gradients
    seen = []

    def recording(*args):
        losses, grads = local_gradients(*args)
        seen.extend(grads)
        return losses, grads

    dut.trainer.local_gradients = recording
    params = dut.trainer.optimizer.params
    for step in range(STEPS):
        calls[0], copies, seen[:] = 0, dut.engine.pack_copies, []
        result = dut.train_step(rank_batches(step, hw))
        assert not result.skipped
        assert calls[0] == forwards
        assert dut.engine.pack_copies == copies
        slots = dut.engine.bucket_slots({p.name: p.data for p in params})
        assert len(seen) == RANKS
        for rank, grads in enumerate(seen):
            assert grads.keys() == slots.keys()
            for k, g in grads.items():
                assert np.shares_memory(g, slots[k][rank]), (step, rank, k)
    assert dut.max_replica_divergence() == 0.0


def test_fp16_keeps_the_pack_copy():
    # The FP16 unscale makes FP32 copies; those are packed.
    dut = DistributedTrainer(deeplab, RANKS,
                             TrainConfig(lr=0.01, precision="fp16",
                                         loss_scale=2.0**4),
                             engine=EngineConfig())
    assert all(p.slot is None for p in dut.trainer.optimizer.params)
    result = dut.train_step(rank_batches(0, (8, 8)))
    assert not result.skipped
    assert dut.engine.pack_copies == RANKS * len(dut.trainer.optimizer.params)
