"""Inference-only fusion: BN folding, fused epilogues, freeze_for_inference.

The contract: ``model.freeze_for_inference()`` returns a *new* model whose
eval-mode outputs match the original to 1e-5, while the original stays
fully trainable and its ``analyze()`` kernel records are bit-for-bit
unchanged — the fusion pass is opt-in at inference and invisible to the
training cost model.
"""
import numpy as np
import pytest

from repro.framework import Tensor, apply_fp16_policy, no_grad
from repro.framework.fusion import (
    FusedConvBiasReLU,
    FusedPreActConv,
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
        assert all(p.requires_grad for p in model.parameters())
        model.train(True)
        assert model.training     # original still toggles into training mode

    def test_frozen_copy_records_no_tape_outside_no_grad(self):
        # No parameter of the copy requires grad, so a direct call outside
        # no_grad() tapes nothing, its plain convs (the stem and the
        # classifier) run the no-tape forward, and no plan keeps columns.
        frozen = _e2e_tiramisu().freeze_for_inference()
        assert not any(p.requires_grad for p in frozen.parameters())
        x = RNG.standard_normal((9, 16, 32, 48)).astype(np.float32)
        with no_grad():
            want = frozen(Tensor(x)).data
        out = frozen(Tensor(x))
        assert not out.requires_grad
        assert out._parents == () and out._backward is None
        assert np.array_equal(out.data.view(np.uint32), want.view(np.uint32))
        plans = [p for m in frozen.modules()
                 for p in getattr(m, "_plans", {}).values()]
        assert len(plans) == 14
        assert all(p.owned_bytes == 0 and p.version == 0 for p in plans)

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

    def test_preact_conv_matches_bn_relu_conv(self):
        bn = BatchNorm2D(4)
        _warm_bn(bn, 4)
        conv = Conv2D(4, 3, 3, bias=False, rng=np.random.default_rng(1))
        fused = FusedPreActConv.from_bn_conv(bn, conv)
        x = RNG.standard_normal((2, 4, 6, 6)).astype(np.float32)
        with no_grad():
            want = conv(ReLU()(bn(Tensor(x)))).data
        np.testing.assert_allclose(fused(Tensor(x)).data, want,
                                   rtol=1e-5, atol=1e-5)


# -- the pre-activation fold under adversarial batch-norm statistics --------
#
# Freshly built BNs sit at their defaults (mean 0, var 1, gamma 1, beta 0),
# where a wrong bias map or a wrong form of the fold still passes.  These
# statistics make both forms run: all-positive normal scales take the
# multiply-free max(x, -t/s), and negative, zero or subnormal scales the
# max(s*x, -t) form.

FORMS = ["positive", "signed"]


def _adversarial_bn(bn: BatchNorm2D, rng, form: str, scale_cap=None):
    """Tiny and normal gammas, tiny variances and |beta| up to 5; with
    ``form="signed"`` also negative, zero and subnormal gammas.  A
    ``scale_cap`` pairs each tiny variance with a gamma small enough that
    ``|gamma| / sqrt(var + eps)`` stays under it (deep stacks)."""
    c = bn.channels
    gamma = rng.uniform(0.5, 1.5, c)
    gamma[::5] = 1e-30                                  # tiny, still normal
    var = rng.uniform(0.5, 2.0, c)
    var[1::3] = 1e-12                                   # tiny variance
    if form == "signed":
        gamma[1::4] *= -1.0
        gamma[2::4] = 0.0
        gamma[3::7] = 1e-40                             # subnormal in FP32
    if scale_cap is not None:
        gamma[1::3] *= scale_cap * np.sqrt(var[1::3] + bn.eps)
    bn.gamma.data[:] = gamma.astype(np.float32)
    bn.beta.data[:] = rng.uniform(-5.0, 5.0, c).astype(np.float32)
    bn.rank_mean[0] = rng.normal(0.0, 1.0, c).astype(np.float32)
    bn.rank_var[0] = var.astype(np.float32)


def _adversarial(module, form: str, scale_cap=None):
    rng = np.random.default_rng(0)
    module.eval()
    for m in module.modules():
        if isinstance(m, BatchNorm2D):
            _adversarial_bn(m, rng, form, scale_cap)
    return module


def _assert_close(got, want, dtype):
    """Frozen against unfused eval of a ``dtype`` model, to rounding.

    Tiny variances scale activations by up to ~316, so outputs reach the
    thousands; there the FP32 unfused eval is itself ~2e-4 off a float64
    evaluation, so the existing ``atol=1e-5`` is taken per unit of the
    reference's largest magnitude.  In FP16 the unfused eval rounds every
    BN output to FP16 before the conv and the fold does not (it is the
    closer of the two to a float64 evaluation), so they differ by FP16
    rounding, compounded over the layers: 4e-3, about four FP16 ulps.
    """
    assert got.dtype == want.dtype
    scale = max(1.0, float(np.abs(want).max()))
    if dtype == np.float32:
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-5 * scale)
    else:
        np.testing.assert_allclose(got, want, rtol=4e-3, atol=4e-3 * scale)


def _cap(dtype):
    """Uncapped, a few x316 layers overflow FP16's 65504 in the unfused
    eval (whose ReLU then turns -inf into NaN); FP16 models cap scales."""
    return None if dtype == np.float32 else 4.0


def _eval_and_frozen(module, x):
    """(unfused eval outputs, frozen outputs), each a list of arrays."""
    def run(mod):
        out = mod(Tensor(x))
        return [t.data for t in (out if isinstance(out, tuple) else (out,))]

    with no_grad():
        want = run(module)
    frozen = freeze(module)
    return want, run(frozen), frozen


def _check_form(frozen, form):
    fused = [m for m in frozen.modules() if isinstance(m, FusedPreActConv)]
    assert fused
    for m in fused:
        assert (m.alpha is None) == (form == "positive")


MODULES = {
    "denselayer-k3": (lambda rng: DenseLayer(12, 4, 3, rng=rng), 12),
    "denselayer-k5": (lambda rng: DenseLayer(12, 4, 5, rng=rng), 12),
    "denselayer-wide": (lambda rng: DenseLayer(4, 6, 3, rng=rng), 4),
    "transition": (lambda rng: TransitionDown(6, rng=rng), 6),
    "denseblock": (lambda rng: DenseBlock(6, 2, 4, rng=rng), 6),
}
MAPS = [(1, 1), (2, 3), (32, 48)]


class TestPreActFold:
    @pytest.mark.parametrize("dtype", [np.float32, np.float16],
                             ids=["fp32", "fp16"])
    @pytest.mark.parametrize("n", [1, 9])
    @pytest.mark.parametrize("form", FORMS)
    @pytest.mark.parametrize("name,hw", [
        # A transition's 2x2 max pool needs at least a 2x2 map.
        (name, hw) for name in MODULES for hw in MAPS
        if not (name == "transition" and hw == (1, 1))],
        ids=lambda v: f"{v[0]}x{v[1]}" if isinstance(v, tuple) else v)
    def test_module_matches_eval(self, name, hw, form, n, dtype):
        factory, channels = MODULES[name]
        module = _adversarial(factory(np.random.default_rng(5)), form,
                              scale_cap=_cap(dtype))
        if dtype == np.float16:
            apply_fp16_policy(module)
        x = (np.random.default_rng(n).standard_normal((n, channels, *hw))
             * 2.0).astype(dtype)
        want, got, frozen = _eval_and_frozen(module, x)
        _check_form(frozen, form)
        for g, w in zip(got, want, strict=True):
            _assert_close(g, w, dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float16],
                             ids=["fp32", "fp16"])
    @pytest.mark.parametrize("n", [1, 9])
    @pytest.mark.parametrize("form", FORMS)
    def test_block_on_up_path_parts(self, form, n, dtype):
        """The up path hands a block ``[tu, skip]``; the first layer's fused
        conv then reads the stacked parts."""
        block = _adversarial(DenseBlock(10, 2, 4, rng=np.random.default_rng(2)),
                             form, scale_cap=_cap(dtype))
        if dtype == np.float16:
            apply_fp16_policy(block)
        rng = np.random.default_rng(n)
        parts = [(rng.standard_normal((n, c, 8, 12)) * 2.0).astype(dtype)
                 for c in (4, 6)]
        with no_grad():
            want = [t.data for t in block([Tensor(p) for p in parts])]
        frozen = freeze(block)
        _check_form(frozen, form)
        got = [t.data for t in frozen([Tensor(p) for p in parts])]
        for g, w in zip(got, want, strict=True):
            _assert_close(g, w, dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float16],
                             ids=["fp32", "fp16"])
    @pytest.mark.parametrize("n", [1, 9])
    @pytest.mark.parametrize("hw", [(4, 4), (8, 12), (32, 48)],
                             ids=lambda hw: f"{hw[0]}x{hw[1]}")
    @pytest.mark.parametrize("form", FORMS)
    def test_tiramisu_matches_eval(self, form, hw, n, dtype):
        """The whole e2e-config Tiramisu; at 4x4 and 8x12 its bottleneck
        runs on 1x1 and 2x3 maps, where the 3x3 taps are partly dead."""
        model = _adversarial(_e2e_tiramisu(), form, scale_cap=4.0)
        if dtype == np.float16:
            apply_fp16_policy(model)
        x = np.random.default_rng(n).standard_normal(
            (n, 16, *hw)).astype(dtype)
        (want,), (got,), frozen = _eval_and_frozen(model, x)
        _check_form(frozen, form)
        assert sum(isinstance(m, FusedPreActConv)
                   for m in frozen.modules()) == 12
        assert np.isfinite(want).all()
        _assert_close(got, want, dtype)


def _e2e_tiramisu():
    from repro.core.networks import Tiramisu, TiramisuConfig

    return Tiramisu(TiramisuConfig(in_channels=16, base_filters=16, growth=8,
                                   down_layers=(2, 2), bottleneck_layers=2,
                                   kernel=3),
                    rng=np.random.default_rng(1234))


class TestNonFinite:
    """The fold keeps NaN-propagating ops: a non-finite input pixel makes
    the frozen output non-finite exactly where the unfused eval's is."""

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("form", FORMS)
    @pytest.mark.parametrize("name", ["denselayer", "tiramisu"])
    def test_non_finite_pixel_lands_where_eval_puts_it(self, name, form,
                                                       value):
        if name == "denselayer":
            module = _adversarial(DenseLayer(12, 4, 3,
                                             rng=np.random.default_rng(5)),
                                  form)
            x = np.random.default_rng(0).standard_normal((2, 12, 8, 12))
        else:
            module = _adversarial(_e2e_tiramisu(), form, scale_cap=4.0)
            x = np.random.default_rng(0).standard_normal((2, 16, 32, 48))
        x = x.astype(np.float32)
        x[1, :, 5, 7] = value
        (want,), (got,), _ = _eval_and_frozen(module, x)
        bad = ~np.isfinite(want)
        assert bad.any() and not bad.all()
        assert not bad[0].any()
        np.testing.assert_array_equal(~np.isfinite(got), bad)
