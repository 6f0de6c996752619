"""Inference-only fusion: BN folding, fused epilogues, freeze_for_inference.

The contract: ``model.freeze_for_inference()`` returns a *new* model whose
eval-mode outputs match the original to 1e-5, while the original stays
fully trainable and its ``analyze()`` kernel records are bit-for-bit
unchanged — the fusion pass is opt-in at inference and invisible to the
training cost model.
"""
import numpy as np
import pytest

from repro.framework import Tensor, no_grad
from repro.framework.fusion import (
    FusedConvBiasReLU,
    FusedScaleShiftReLU,
    bn_scale_shift,
    fold_bn_into_conv,
    freeze,
    fuse_sequential,
)
from repro.framework.layers import BatchNorm2D, Conv2D, Identity, ReLU
from repro.framework.module import Sequential
from repro.core.networks.blocks import (
    Bottleneck,
    ConvBNReLU,
    DenseBlock,
    DenseLayer,
    TransitionDown,
)
from repro.core.inference import forward_windows

RNG = np.random.default_rng(11)


def _warm_bn(bn: BatchNorm2D, channels: int, steps: int = 3):
    """Give the BN non-trivial frozen statistics by running training steps."""
    bn.train(True)
    for _ in range(steps):
        x = Tensor(RNG.standard_normal((4, channels, 6, 6)).astype(np.float32)
                   * 2.0 + 0.5)
        bn(x)
    bn.gamma.data[:] = RNG.uniform(0.5, 1.5, channels).astype(np.float32)
    bn.beta.data[:] = RNG.uniform(-0.5, 0.5, channels).astype(np.float32)
    bn.train(False)


def _warm_module(mod, channels: int, hw: int = 10, steps: int = 3):
    """Run a few training forwards so every BN has real running stats."""
    mod.train(True)
    for _ in range(steps):
        mod(Tensor(RNG.standard_normal((2, channels, hw, hw))
                   .astype(np.float32)))
    mod.train(False)


class TestFolding:
    def test_scale_shift_matches_eval_bn(self):
        bn = BatchNorm2D(5)
        _warm_bn(bn, 5)
        scale, shift = bn_scale_shift(bn)
        x = RNG.standard_normal((2, 5, 7, 7)).astype(np.float32)
        want = bn(Tensor(x)).data
        got = x * scale.reshape(1, -1, 1, 1) + shift.reshape(1, -1, 1, 1)
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)

    def test_fold_bn_into_conv_matches_sequential(self):
        conv = Conv2D(3, 6, 3, bias=False,
                      rng=np.random.default_rng(0))
        bn = BatchNorm2D(6)
        _warm_bn(bn, 6)
        w, b = fold_bn_into_conv(conv, bn)
        x = RNG.standard_normal((2, 3, 9, 9)).astype(np.float32)
        want = bn(conv(Tensor(x))).data
        fused = FusedConvBiasReLU(w, b, stride=1, padding=1, dilation=1,
                                  relu=False)
        got = fused(Tensor(x)).data
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)

    def test_fold_handles_conv_bias(self):
        conv = Conv2D(2, 4, 3, bias=True,
                      rng=np.random.default_rng(0))
        conv.bias.data[:] = RNG.standard_normal(4).astype(np.float32)
        bn = BatchNorm2D(4)
        _warm_bn(bn, 4)
        x = RNG.standard_normal((1, 2, 8, 8)).astype(np.float32)
        want = bn(conv(Tensor(x))).data
        fused = FusedConvBiasReLU.from_conv_bn(conv, bn, relu=False)
        np.testing.assert_allclose(fused(Tensor(x)).data, want,
                                   rtol=1e-5, atol=1e-5)

    def test_fused_relu_epilogue(self):
        conv = Conv2D(3, 5, 3, bias=False,
                      rng=np.random.default_rng(2))
        bn = BatchNorm2D(5)
        _warm_bn(bn, 5)
        relu = ReLU()
        x = RNG.standard_normal((2, 3, 8, 8)).astype(np.float32)
        want = relu(bn(conv(Tensor(x)))).data
        fused = FusedConvBiasReLU.from_conv_bn(conv, bn, relu=True)
        got = fused(Tensor(x)).data
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)
        assert (got >= 0).all()

    def test_fused_module_has_no_trainable_parameters(self):
        conv = Conv2D(2, 3, 3, bias=False,
                      rng=np.random.default_rng(0))
        bn = BatchNorm2D(3)
        fused = FusedConvBiasReLU.from_conv_bn(conv, bn)
        assert list(fused.parameters()) == []


class TestFuseSequential:
    def test_conv_bn_relu_pattern(self):
        rng = np.random.default_rng(3)
        seq = Sequential(
            Conv2D(3, 6, 3, bias=False, rng=rng),
            BatchNorm2D(6),
            ReLU(),
            Conv2D(6, 4, 1, bias=False, rng=rng),
            BatchNorm2D(4),
        )
        _warm_module(seq, 3, hw=9)
        x = RNG.standard_normal((2, 3, 9, 9)).astype(np.float32)
        want = seq(Tensor(x)).data
        fused = fuse_sequential(seq)
        assert fused == 2
        assert isinstance(seq.layers[0], FusedConvBiasReLU)
        assert isinstance(seq.layers[1], Identity)      # absorbed BN
        assert isinstance(seq.layers[2], Identity)      # absorbed ReLU
        assert isinstance(seq.layers[3], FusedConvBiasReLU)
        np.testing.assert_allclose(seq(Tensor(x)).data, want,
                                   rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("block_factory,channels", [
        (lambda rng: ConvBNReLU(3, 8, 3, rng=rng), 3),
        (lambda rng: DenseLayer(4, 6, rng=rng), 4),
        (lambda rng: DenseBlock(4, 2, 3, rng=rng), 4),
        (lambda rng: TransitionDown(6, rng=rng), 6),
        (lambda rng: Bottleneck(8, 4, rng=rng), 8),      # projection branch
        (lambda rng: Bottleneck(16, 4, rng=rng), 16),    # identity branch
    ], ids=["convbnrelu", "denselayer", "denseblock", "transition",
            "bottleneck-proj", "bottleneck-id"])
    def test_block_hooks_match_eval(self, block_factory, channels):
        block = block_factory(np.random.default_rng(5))
        _warm_module(block, channels)
        x = RNG.standard_normal((2, channels, 10, 10)).astype(np.float32)

        def run(mod):
            # DenseBlock returns (stack, new_maps); normalize to a tuple.
            out = mod(Tensor(x))
            return out if isinstance(out, tuple) else (out,)

        with no_grad():
            want = [t.data for t in run(block)]
        frozen = freeze(block)
        got = [t.data for t in run(frozen)]
        assert len(got) == len(want)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=1e-4, atol=1e-5)


class TestFreeze:
    def _model(self):
        rng = np.random.default_rng(7)
        return Sequential(
            ConvBNReLU(3, 8, 3, rng=rng),
            Bottleneck(8, 4, rng=rng),
            Conv2D(16, 3, 1, bias=True, rng=rng),
        )

    def test_freeze_matches_eval_forward(self):
        model = self._model()
        _warm_module(model, 3)
        x = RNG.standard_normal((2, 3, 12, 12)).astype(np.float32)
        with no_grad():
            want = model(Tensor(x)).data
        frozen = model.freeze_for_inference()
        got = frozen(Tensor(x)).data
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-5)

    def test_original_model_is_untouched_and_trainable(self):
        model = self._model()
        _warm_module(model, 3)
        before = {k: v.copy() for k, v in model.state_dict().items()}
        n_params = len(list(model.parameters()))
        model.freeze_for_inference()
        after = model.state_dict()
        assert set(before) == set(after)
        for k in before:
            np.testing.assert_array_equal(before[k], after[k])
        assert len(list(model.parameters())) == n_params
        model.train(True)
        assert model.training     # original still toggles into training mode

    def test_frozen_model_refuses_training_mode(self):
        model = self._model()
        frozen = model.freeze_for_inference()
        assert not frozen.training
        frozen.train(True)
        assert not frozen.training, "_frozen models must stay in eval"

    def test_frozen_stays_eval_through_forward_windows(self):
        model = self._model()
        _warm_module(model, 3)
        frozen = model.freeze_for_inference()
        tiles = [RNG.standard_normal((3, 12, 12)).astype(np.float32)
                 for _ in range(3)]
        with no_grad():
            want = [model(Tensor(t[None])).data[0] for t in tiles]
        outs = forward_windows(frozen, tiles, batch_size=2)
        assert not frozen.training
        for got, ref in zip(outs, want):
            np.testing.assert_allclose(got, ref, rtol=1e-4, atol=1e-5)

    def test_analyze_records_unchanged_by_freeze(self):
        """Folding is opt-in at inference: the training-graph cost model of
        the *original* model must be bit-for-bit identical after freeze()."""
        model = self._model()
        def snap():
            ga = model.analyze((3, 12, 12), batch=2)
            return [(r.name, r.category, r.flops, r.bytes, r.count)
                    for r in ga.records]
        before = snap()
        model.freeze_for_inference()
        assert snap() == before

    def test_frozen_traces_fused_kernels(self):
        model = self._model()
        frozen = model.freeze_for_inference()
        ga = frozen.analyze((3, 12, 12), batch=1, include_backward=False)
        names = [r.name for r in ga.records]
        assert any("bias_relu_fwd" in n for n in names), names
        assert not any("bwd" in n for n in names), "frozen graph has no backward"

    def test_scale_shift_relu_matches_bn_relu(self):
        bn = BatchNorm2D(4)
        _warm_bn(bn, 4)
        fused = FusedScaleShiftReLU.from_bn(bn, relu=True)
        x = RNG.standard_normal((2, 4, 6, 6)).astype(np.float32)
        want = np.maximum(bn(Tensor(x)).data, 0.0)
        np.testing.assert_allclose(fused(Tensor(x)).data, want,
                                   rtol=1e-5, atol=1e-5)
