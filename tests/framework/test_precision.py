"""Mixed-precision machinery: loss scaling, FP16 policy, master weights."""
import numpy as np
import pytest

from repro.core import TrainConfig, Trainer
from repro.framework import LossScaler, Tensor, apply_fp16_policy
from repro.framework.dtypes import Precision, as_numpy_dtype, bytes_per_element, compute_dtype
from repro.framework.layers import BatchNorm2D, Conv2D, Sequential
from repro.framework.parameter import Parameter


class TestDtypes:
    def test_precision_lookup(self):
        assert Precision("fp16").np_dtype == np.float16
        assert Precision("fp32").itemsize == 4
        assert Precision("fp16").is_half

    def test_invalid_precision(self):
        with pytest.raises(ValueError):
            Precision("fp8")

    def test_compute_dtype_is_fp32_for_half(self):
        assert compute_dtype("fp16") == np.float32

    def test_helpers(self):
        assert as_numpy_dtype("fp16") == np.float16
        assert bytes_per_element("fp64") == 8

    def test_equality_with_string(self):
        assert Precision("fp16") == "fp16"
        assert Precision("fp16") != "fp32"


class TestParameterMaster:
    def test_master_copy_roundtrip(self):
        p = Parameter(np.array([1.0, 2.0], dtype=np.float32))
        p.enable_master_copy()
        p.cast_(np.float16)
        assert p.data.dtype == np.float16
        p.apply_update(np.array([1e-4, 1e-4]))
        # Master accumulates below-fp16-resolution updates.
        assert p.master[0] != 1.0
        assert p.master.dtype == np.float32

    def test_small_updates_accumulate_via_master(self):
        p = Parameter(np.ones(1, dtype=np.float32))
        p.enable_master_copy()
        p.cast_(np.float16)
        for _ in range(100):
            p.apply_update(np.array([1e-5]))
        np.testing.assert_allclose(p.master, 1.001, rtol=1e-4)

    def test_without_master_updates_direct(self):
        p = Parameter(np.ones(2, dtype=np.float32))
        p.apply_update(np.array([0.5, -0.5]))
        np.testing.assert_allclose(p.data, [1.5, 0.5])


def fp16_trainer(**scaler_kw) -> Trainer:
    """A trainer whose FP16 decision runs through ``LossScaler(**scaler_kw)``."""
    trainer = Trainer(Sequential(Conv2D(2, 3, 3)),
                      TrainConfig(optimizer="sgd", precision="fp16"))
    trainer.scaler = LossScaler(**scaler_kw)
    return trainer


def one_rank(*values):
    return [{f"p{i}": np.asarray(v) for i, v in enumerate(values)}]


class TestLossScaler:
    def test_scale_loss_multiplies(self):
        s = LossScaler(init_scale=8.0, dynamic=False)
        loss = Tensor(np.array(2.0), requires_grad=True)
        assert s.scale_loss(loss).item() == 16.0

    def test_unscales_gradients(self):
        t = fp16_trainer(init_scale=4.0, dynamic=False)
        (grads,) = t.unscale(one_rank(np.array([8.0], dtype=np.float16)))
        np.testing.assert_allclose(grads["p0"], [2.0])
        assert grads["p0"].dtype == np.float32

    def test_overflow_skips_and_backs_off(self):
        t = fp16_trainer(init_scale=1024.0, dynamic=True, backoff_factor=0.5)
        assert t.unscale(one_rank(np.array([np.inf]))) is None
        assert t.scaler.scale == 512.0
        assert t.scaler.num_overflows == 1

    def test_nan_detected(self):
        t = fp16_trainer(dynamic=True)
        assert t.unscale(one_rank(np.array([np.nan]))) is None

    def test_overflow_on_any_rank_backs_off_once(self):
        t = fp16_trainer(init_scale=1024.0, dynamic=True)
        ranks = one_rank(np.array([1.0])) + one_rank(np.array([np.inf]))
        assert t.unscale(ranks) is None
        assert t.scaler.scale == 512.0
        assert t.scaler.num_overflows == 1

    def test_growth_after_interval(self):
        t = fp16_trainer(init_scale=2.0, dynamic=True, growth_interval=3,
                         growth_factor=2.0)
        for _ in range(3):
            assert t.unscale(one_rank(np.array([1.0]))) is not None
        assert t.scaler.scale == 4.0

    def test_growth_unscales_by_the_scale_before_it(self):
        t = fp16_trainer(init_scale=2.0, dynamic=True, growth_interval=1)
        (grads,) = t.unscale(one_rank(np.array([8.0])))
        np.testing.assert_allclose(grads["p0"], [4.0])
        assert t.scaler.scale == 4.0

    def test_static_never_changes(self):
        s = LossScaler(init_scale=16.0, dynamic=False, growth_interval=1)
        for _ in range(5):
            s.update(True)
        s.update(False)
        assert s.scale == 16.0

    def test_scale_floor(self):
        s = LossScaler(init_scale=2.0, dynamic=True, min_scale=1.0)
        for _ in range(10):
            s.update(False)
        assert s.scale == 1.0

    def test_invalid_init_scale(self):
        with pytest.raises(ValueError):
            LossScaler(init_scale=0.0)

    def test_unscale_counts_a_rank_without_grads_as_finite(self):
        t = fp16_trainer(init_scale=2.0, dynamic=True, growth_interval=1)
        assert t.unscale([{}]) == [{}]
        assert t.scaler.scale == 4.0

    def test_fp32_grads_pass_through(self):
        t = Trainer(Sequential(Conv2D(2, 3, 3)), TrainConfig(optimizer="sgd"))
        ranks = one_rank(np.array([np.inf], dtype=np.float32))
        assert t.unscale(ranks) is ranks


class TestFp16Policy:
    def test_conv_weights_half_bn_fp32(self):
        model = Sequential(Conv2D(2, 3, 3), BatchNorm2D(3))
        apply_fp16_policy(model)
        conv, bn = model[0], model[1]
        assert conv.weight.data.dtype == np.float16
        assert conv.weight.master is not None
        assert bn.gamma.data.dtype == np.float32
        assert conv.bias.data.dtype == np.float32  # 1-D stays fp32

    def test_forward_in_fp16(self):
        model = Sequential(Conv2D(2, 3, 3, bias=False))
        apply_fp16_policy(model)
        x = Tensor(np.random.default_rng(0).normal(size=(1, 2, 6, 6)).astype(np.float16))
        out = model(x)
        assert out.dtype == np.float16
