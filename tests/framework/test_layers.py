"""Layer library: eager/trace agreement, gradients, registration."""
import numpy as np
import pytest

from repro.framework import Tensor
from repro.framework.graph import GraphTracer
from repro.framework.layers import (
    BatchNorm2D,
    Conv2D,
    ConvTranspose2D,
    Dropout,
    Identity,
    MaxPool2D,
    ReLU,
    Sequential,
)

RNG = np.random.default_rng(0)


def trace_shape(layer, in_shape, batch=2):
    tracer = GraphTracer(batch, "fp32")
    probe = tracer.probe(*in_shape)
    return layer(probe).shape, tracer.finish()


def eager_shape(layer, in_shape, batch=2):
    x = Tensor(RNG.normal(size=(batch,) + in_shape).astype(np.float32),
               requires_grad=True)
    return layer(x).shape


# Fixed ids, so that deleting a row never renames the rows after it.
LAYER_CASES = [
    pytest.param(Conv2D(3, 8, 3), (3, 8, 12), id="Conv2D_0"),
    pytest.param(Conv2D(3, 8, 3, stride=2), (3, 8, 12), id="Conv2D_1"),
    pytest.param(Conv2D(3, 8, 5), (3, 10, 10), id="Conv2D_2"),
    pytest.param(Conv2D(3, 8, 1), (3, 8, 8), id="Conv2D_3"),
    pytest.param(Conv2D(3, 8, 7, stride=2), (3, 16, 16), id="Conv2D_4"),
    pytest.param(Conv2D(4, 6, 3, dilation=4), (4, 16, 16), id="Conv2D_dilated_5"),
    pytest.param(ConvTranspose2D(6, 3, 3, stride=2), (6, 5, 7), id="ConvTranspose2D_6"),
    pytest.param(BatchNorm2D(5), (5, 6, 6), id="BatchNorm2D_7"),
    pytest.param(ReLU(), (2, 4, 4), id="ReLU_8"),
    pytest.param(MaxPool2D(2, 2), (3, 8, 8), id="MaxPool2D_11"),
    pytest.param(MaxPool2D(3, 2, padding=1), (3, 8, 8), id="MaxPool2D_12"),
    pytest.param(Dropout(0.3), (2, 6, 6), id="Dropout_15"),
    pytest.param(Identity(), (2, 4, 4), id="Identity_17"),
    pytest.param(Sequential(Conv2D(3, 6, 3), ReLU(), MaxPool2D(2, 2)),
                 (3, 8, 8), id="Sequential_18"),
]


class TestEagerTraceAgreement:
    @pytest.mark.parametrize("layer,in_shape", LAYER_CASES)
    def test_shapes_agree(self, layer, in_shape):
        traced, _ = trace_shape(layer, in_shape)
        assert traced == eager_shape(layer, in_shape)

    def test_trace_emits_records(self):
        _, analysis = trace_shape(Conv2D(3, 8, 3), (3, 8, 8))
        assert analysis.category_flops("conv_fwd") > 0
        assert analysis.category_flops("conv_bwd") == 2 * analysis.category_flops("conv_fwd")

    def test_fp16_trace_emits_casts(self):
        tracer = GraphTracer(1, "fp16")
        Conv2D(3, 8, 3)(tracer.probe(3, 8, 8))
        analysis = tracer.finish()
        assert analysis.category_kernels("cast") == 1

    def test_no_backward_trace(self):
        tracer = GraphTracer(1, "fp32", include_backward=False)
        Conv2D(3, 8, 3)(tracer.probe(3, 8, 8))
        analysis = tracer.finish()
        assert analysis.category_flops("conv_bwd") == 0


class TestConv2D:
    def test_gradients_reach_params(self):
        conv = Conv2D(2, 3, 3)
        x = Tensor(RNG.normal(size=(1, 2, 6, 6)).astype(np.float32))
        conv(x).sum().backward()
        assert conv.weight.grad is not None
        assert conv.bias.grad is not None

    def test_no_bias(self):
        conv = Conv2D(2, 3, 3, bias=False)
        assert conv.bias is None
        assert len(conv.parameters()) == 1

    def test_same_padding_even_kernel_raises(self):
        with pytest.raises(ValueError, match="odd kernel"):
            Conv2D(2, 3, 4)

    def test_channel_mismatch_raises_in_trace(self):
        tracer = GraphTracer(1)
        with pytest.raises(ValueError, match="channels"):
            Conv2D(3, 8, 3)(tracer.probe(4, 8, 8))

    def test_deterministic_init_with_seeded_rng(self):
        a = Conv2D(2, 3, 3, rng=np.random.default_rng(9))
        b = Conv2D(2, 3, 3, rng=np.random.default_rng(9))
        np.testing.assert_array_equal(a.weight.data, b.weight.data)


class TestConvTranspose2D:
    def test_exact_double_upsample(self):
        deconv = ConvTranspose2D(4, 2, 3, stride=2, padding=1, output_padding=1)
        x = Tensor(RNG.normal(size=(1, 4, 5, 6)).astype(np.float32))
        assert deconv(x).shape == (1, 2, 10, 12)

    def test_gradcheck(self):
        deconv = ConvTranspose2D(2, 2, 3, stride=2, padding=1, output_padding=1,
                                 rng=np.random.default_rng(1))
        deconv.weight.data = deconv.weight.data.astype(np.float64)
        deconv.bias.data = deconv.bias.data.astype(np.float64)
        x0 = RNG.normal(size=(1, 2, 4, 4))
        x = Tensor(x0, requires_grad=True)
        y = deconv(x)
        (y * y).sum().backward()
        eps = 1e-6
        for idx in [(0, 0, 0, 0), (0, 1, 3, 3)]:
            def loss(xv):
                return float((deconv(Tensor(xv)).data ** 2).sum())
            xp = x0.copy(); xp[idx] += eps
            xm = x0.copy(); xm[idx] -= eps
            fd = (loss(xp) - loss(xm)) / (2 * eps)
            np.testing.assert_allclose(x.grad[idx], fd, rtol=1e-5, atol=1e-7)

    def test_weight_grad_flows(self):
        deconv = ConvTranspose2D(2, 2, 3)
        x = Tensor(RNG.normal(size=(1, 2, 4, 4)).astype(np.float32))
        deconv(x).sum().backward()
        assert deconv.weight.grad is not None
        assert deconv.weight.grad.shape == deconv.weight.shape


class TestBatchNorm2D:
    def test_train_mode_updates_running_stats(self):
        bn = BatchNorm2D(2)
        x = Tensor(RNG.normal(loc=3.0, size=(4, 2, 5, 5)).astype(np.float32))
        before = bn.running_mean.copy()
        bn(x)
        assert not np.allclose(bn.running_mean, before)

    @pytest.mark.parametrize("dtype", [np.float32, np.float16])
    def test_running_stats_reuse_op_statistics_bit_for_bit(self, dtype):
        # The layer used to reduce x a second time for the running stats;
        # taking them from the op's cache must not move a single bit.
        bn = BatchNorm2D(3)
        mean = np.zeros(3, dtype=np.float32)
        var = np.ones(3, dtype=np.float32)
        rng = np.random.default_rng(11)
        for _ in range(3):
            x = rng.normal(loc=1.5, scale=2.0, size=(4, 3, 6, 5)).astype(dtype)
            bn(Tensor(x))
            xa = x.astype(np.float32, copy=False)
            mean *= 1 - bn.momentum
            mean += bn.momentum * xa.mean(axis=(0, 2, 3))
            var *= 1 - bn.momentum
            var += bn.momentum * xa.var(axis=(0, 2, 3))
            np.testing.assert_array_equal(bn.running_mean, mean)
            np.testing.assert_array_equal(bn.running_var, var)

    def test_eval_mode_uses_running_stats(self):
        bn = BatchNorm2D(1)
        bn.running_mean[:] = 2.0
        bn.running_var[:] = 1.0
        bn.eval()
        x = Tensor(np.full((1, 1, 2, 2), 2.0, dtype=np.float32))
        np.testing.assert_allclose(bn(x).data, 0.0, atol=1e-3)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError, match="channels"):
            BatchNorm2D(3)(Tensor(np.zeros((1, 2, 4, 4), dtype=np.float32)))

    def test_buffers_in_state_dict(self):
        bn = BatchNorm2D(2)
        state = bn.state_dict()
        assert "running_mean" in state and "running_var" in state

    def test_state_roundtrip(self):
        bn = BatchNorm2D(2)
        bn.running_mean[:] = [1.0, 2.0]
        state = bn.state_dict()
        bn2 = BatchNorm2D(2)
        bn2.load_state_dict(state)
        np.testing.assert_allclose(bn2.running_mean, [1.0, 2.0])


class TestDropout:
    def test_eval_is_identity(self):
        d = Dropout(0.5)
        d.eval()
        x = Tensor(np.ones((2, 3, 4, 4), dtype=np.float32))
        np.testing.assert_array_equal(d(x).data, x.data)

    def test_train_scales_survivors(self):
        d = Dropout(0.5, rng=np.random.default_rng(0))
        x = Tensor(np.ones((1, 1, 100, 100), dtype=np.float32))
        out = d(x).data
        survivors = out[out != 0]
        np.testing.assert_allclose(survivors, 2.0, rtol=1e-6)
        assert 0.4 < (out != 0).mean() < 0.6

    def test_default_generator_is_seeded(self):
        # Two layers built without rng= must drop the same units: an
        # entropy-seeded default would give every rank and run its own mask.
        x = Tensor(np.ones((1, 2, 8, 8), dtype=np.float32))
        np.testing.assert_array_equal(Dropout(0.5)(x).data,
                                      Dropout(0.5)(x).data)

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            Dropout(1.0)
        with pytest.raises(ValueError):
            Dropout(-0.1)

    def test_zero_p_identity_in_train(self):
        d = Dropout(0.0)
        x = Tensor(np.ones((1, 1, 4, 4), dtype=np.float32))
        np.testing.assert_array_equal(d(x).data, x.data)


class TestSequentialAndModule:
    def test_parameter_names_dotted(self):
        seq = Sequential(Conv2D(2, 3, 3), BatchNorm2D(3))
        names = [n for n, _ in seq.named_parameters()]
        assert "0.weight" in names and "1.gamma" in names

    def test_train_eval_propagates(self):
        seq = Sequential(Dropout(0.5), BatchNorm2D(2))
        seq.eval()
        assert not seq[0].training and not seq[1].training
        seq.train()
        assert seq[0].training

    def test_num_parameters(self):
        conv = Conv2D(2, 3, 3)
        assert conv.num_parameters() == 3 * 2 * 9 + 3

    def test_state_dict_load_roundtrip(self):
        seq = Sequential(Conv2D(2, 3, 3, rng=np.random.default_rng(1)))
        state = seq.state_dict()
        seq2 = Sequential(Conv2D(2, 3, 3, rng=np.random.default_rng(2)))
        seq2.load_state_dict(state)
        np.testing.assert_array_equal(seq2[0].weight.data, seq[0].weight.data)

    def test_load_unknown_buffer_raises(self):
        seq = Sequential(Conv2D(2, 3, 3))
        with pytest.raises(KeyError):
            seq.load_state_dict({"nonexistent.thing": np.zeros(1)})

    def test_append(self):
        seq = Sequential(ReLU())
        seq.append(Identity())
        assert len(seq) == 2

    def test_zero_grad_clears(self):
        conv = Conv2D(2, 3, 3)
        x = Tensor(np.ones((1, 2, 5, 5), dtype=np.float32))
        conv(x).sum().backward()
        assert conv.weight.grad is not None
        conv.zero_grad()
        assert conv.weight.grad is None
