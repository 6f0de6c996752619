"""The shape-only initializer scope: placeholders inside, today's bytes
outside, and no way to train or save a placeholder network by accident."""
import hashlib
import threading

import numpy as np
import pytest

from repro.core import CheckpointManager, TrainConfig, Trainer
from repro.core.networks import Tiramisu, TiramisuConfig
from repro.core.optim import SGD
from repro.errors import ReproError
from repro.framework import apply_fp16_policy
from repro.framework import init as initializers
from repro.framework.init import in_shape_only_scope, shape_only
from repro.framework.layers import BatchNorm2D, Conv2D

TINY = TiramisuConfig(in_channels=4, base_filters=8, growth=4, down_layers=(2, 2),
                      bottleneck_layers=2, kernel=3, dropout=0.0)


def tiny(rng=None):
    return Tiramisu(TINY, rng=rng or np.random.default_rng(3))


@pytest.fixture()
def placeholder_net():
    with shape_only():
        return tiny()


class TestScope:
    def test_default_stream_is_pinned(self):
        # Every seeded training run (and the benchmark's loss_at_check)
        # depends on these bytes; the scope must never change them.
        w = initializers.he_normal(np.random.default_rng(0), (8, 4, 3, 3))
        assert w.flags.writeable and w.dtype == np.float32
        assert hashlib.sha256(w.tobytes()).hexdigest() == (
            "e518df8c98062f7a7e341ebc34479e8aac7265848225dda7b8d9c4edf1fc739f")

    @pytest.mark.parametrize("draw", [initializers.he_normal])
    def test_random_initializers_return_placeholders(self, draw):
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        with shape_only():
            w = draw(rng, (16, 8, 3, 3))
        assert w.shape == (16, 8, 3, 3) and w.dtype == np.float32
        assert w.strides == (0, 0, 0, 0) and not w.flags.writeable
        assert rng.bit_generator.state == before
        with pytest.raises(ValueError, match="read-only"):
            w[0, 0, 0, 0] = 1.0

    def test_constant_initializers_keep_their_value(self):
        with shape_only():
            z, o = initializers.zeros((7,)), initializers.ones((7,))
        assert z.strides == o.strides == (0,)
        assert z.sum() == 0 and o.sum() == 7

    def test_shape_checks_still_run(self):
        with shape_only(), pytest.raises(ValueError):
            initializers.he_normal(np.random.default_rng(0), (3, 3, 3))

    def test_nested_and_exception_safe(self):
        assert not in_shape_only_scope()
        with pytest.raises(RuntimeError):
            with shape_only():
                with shape_only():
                    assert in_shape_only_scope()
                assert in_shape_only_scope()
                raise RuntimeError("boom")
        assert not in_shape_only_scope()

    def test_threads_started_inside_draw_real_weights(self):
        seen = {}

        def worker():
            seen["scope"] = in_shape_only_scope()
            seen["weight"] = Conv2D(2, 3, 3).weight

        with shape_only():
            t = threading.Thread(target=worker)
            t.start()
            t.join(timeout=10)
        assert not t.is_alive()
        assert seen["scope"] is False
        assert seen["weight"].data.flags.writeable and not seen["weight"].shape_only

    def test_network_inside_matches_network_outside(self, placeholder_net):
        real = tiny()
        assert placeholder_net.num_parameters() == real.num_parameters()
        assert ([(n, p.shape, p.dtype) for n, p in placeholder_net.named_parameters()]
                == [(n, p.shape, p.dtype) for n, p in real.named_parameters()])
        assert all(p.shape_only and not p.data.flags.writeable
                   for p in placeholder_net.parameters())
        assert not any(p.shape_only for p in real.parameters())
        assert placeholder_net.analyze((4, 16, 24)) == real.analyze((4, 16, 24))

    def test_batchnorm_parameters_are_placeholders_too(self):
        with shape_only():
            bn = BatchNorm2D(4)
        assert bn.gamma.shape_only and bn.gamma.data.strides == (0,)


class TestFailsLoudly:
    """One test per way a placeholder network could end up being trained."""

    def test_apply_update(self, placeholder_net):
        p = placeholder_net.parameters()[0]
        with pytest.raises(ReproError, match=p.name):
            p.apply_update(np.zeros(p.shape, dtype=np.float32))

    def test_optimizer_step(self, placeholder_net):
        opt = SGD(placeholder_net.parameters(), lr=0.1)
        for p in placeholder_net.parameters():
            p.grad = np.ones(p.shape, dtype=np.float32)
        with pytest.raises(ReproError, match="shape-only"):
            opt.step()

    def test_cast_parameters_then_write(self, placeholder_net):
        apply_fp16_policy(placeholder_net)
        p = placeholder_net.parameters()[0]
        assert p.dtype == np.float16
        with pytest.raises(ReproError, match=p.name):
            p.apply_update(np.zeros(p.shape, dtype=np.float32))

    def test_in_place_write_hits_numpy_read_only(self, placeholder_net):
        p = placeholder_net.parameters()[0]
        with pytest.raises(ValueError, match="read-only"):
            p.data[...] = 1.0

    @pytest.mark.parametrize("precision", ["fp32", "fp16"])
    def test_train_step(self, placeholder_net, precision):
        trainer = Trainer(placeholder_net, TrainConfig(lr=0.05, precision=precision,
                                                       dynamic_loss_scale=False))
        images = np.random.default_rng(0).normal(size=(2, 4, 16, 24)).astype(np.float32)
        labels = np.zeros((2, 16, 24), dtype=np.int64)
        with pytest.raises(ReproError, match="shape-only"):
            trainer.train_step(images, labels)

    def test_state_dict_and_checkpoint_save(self, placeholder_net, tmp_path):
        with pytest.raises(ReproError, match="shape-only"):
            placeholder_net.state_dict()
        trainer = Trainer(placeholder_net, TrainConfig(lr=0.05))
        with pytest.raises(ReproError, match="shape-only"):
            CheckpointManager(tmp_path).save(trainer)
        assert list(tmp_path.iterdir()) == []
