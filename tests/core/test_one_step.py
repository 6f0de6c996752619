"""One training step: ``Trainer.train_step`` and a one-rank
``DistributedTrainer.train_step`` are the same computation.

Both compose ``Trainer.local_gradients``, ``Trainer.unscale`` and
``Trainer.apply``; the distributed step only inserts the exchange, which is
the identity at one rank.  Losses, skip decisions, every model array
(weights and batch-norm statistics) and the loss scaler's state must agree
to the bit after every step, FP16 overflows included.
"""
import numpy as np
import pytest

from repro.core import DistributedTrainer, TrainConfig, Trainer
from repro.core.networks import Tiramisu, TiramisuConfig

STEPS = 6
# Overflows FP16 gradients on the first step and backs off into range.
OVERFLOWING_SCALE = 2.0**19


def factory():
    return Tiramisu(TiramisuConfig(in_channels=4, base_filters=8, growth=4,
                                   down_layers=(2,), bottleneck_layers=2,
                                   kernel=3, dropout=0.2),
                    rng=np.random.default_rng(3))


def batch(step):
    rng = np.random.default_rng(100 + step)
    return (rng.normal(size=(2, 4, 8, 8)).astype(np.float32),
            rng.integers(0, 3, size=(2, 8, 8)))


def scaler_state(trainer):
    s = trainer.scaler
    return None if s is None else (s.scale, s._good_steps, s.num_overflows)


CONFIGS = {
    "fp32-larc": dict(optimizer="larc"),
    "fp16-sgd": dict(optimizer="sgd", precision="fp16",
                     loss_scale=OVERFLOWING_SCALE),
    "fp16-lars-lag1": dict(optimizer="lars", precision="fp16", gradient_lag=1,
                           loss_scale=OVERFLOWING_SCALE),
}


@pytest.mark.filterwarnings("ignore:overflow encountered in cast")
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_single_process_step_is_the_one_rank_step(name):
    config = TrainConfig(lr=0.05, **CONFIGS[name])
    single = Trainer(factory(), config)
    dist = DistributedTrainer(factory, 1, config)
    skipped = []
    for step in range(STEPS):
        want = single.train_step(*batch(step))
        got = dist.train_step([batch(step)])
        assert np.array_equal(got.per_rank_loss, [want.loss])
        assert np.array_equal(got.mean_loss, want.loss)
        assert got.skipped == want.skipped
        skipped.append(want.skipped)
        sa, sb = single.model.state_dict(), dist.model.state_dict()
        assert sa.keys() == sb.keys()
        for k in sa:
            assert np.array_equal(sa[k], sb[k]), (step, k)
        assert scaler_state(single) == scaler_state(dist.trainer)
    if config.precision == "fp16":
        assert True in skipped and False in skipped, skipped
    else:
        assert not any(skipped)


def test_fp32_local_gradients_are_float32():
    trainer = Trainer(factory(), TrainConfig(optimizer="larc"))
    _, grads = trainer.local_gradients(*batch(0))
    assert grads and all(g.dtype == np.float32 for g in grads.values())
    assert all(p.grad is None for p in trainer.optimizer.params)
