"""Tiled (sliding-window) inference."""
import numpy as np
import pytest

from repro.core.inference import (
    blend_windows,
    forward_windows,
    predict_tiled,
    sliding_window_logits,
    tent_window,
    tile_positions,
)
from repro.framework.graph import ShapeProbe
from repro.framework.module import Module
from repro.framework.tensor import Tensor


class ConstantModel(Module):
    """Emits a fixed per-class logit everywhere (tiling invariance oracle)."""

    def __init__(self, logits=(0.5, -1.0, 2.0)):
        super().__init__()
        self.values = np.asarray(logits, dtype=np.float32)

    def forward(self, x):
        if isinstance(x, ShapeProbe):  # pragma: no cover
            raise NotImplementedError
        n, c, h, w = x.shape
        out = np.broadcast_to(self.values[None, :, None, None],
                              (n, len(self.values), h, w))
        return Tensor(np.ascontiguousarray(out))


class MeanModel(Module):
    """Logit 0 = local mean of channel 0; checks values pass through."""

    def forward(self, x):
        data = x.data.astype(np.float32)
        return Tensor(np.stack([data[:, 0], -data[:, 0]], axis=1))


class CountingModel(MeanModel):
    """MeanModel counting forwarded windows and ``train()`` calls."""

    def __init__(self):
        super().__init__()
        self.calls = 0
        self.train_calls = 0

    def forward(self, x):
        self.calls += x.data.shape[0]
        return super().forward(x)

    def train(self, mode=True):
        self.train_calls += 1
        return super().train(mode)


class CountingCache:
    """Dict-backed stand-in for the :class:`repro.serve.TileCache` duck
    type: ``key``/``window_keys`` to key a snapshot, ``get``/``put``."""

    def __init__(self):
        self.store = {}
        self.puts = 0
        self.snapshots_keyed = 0

    def key(self, array):
        self.snapshots_keyed += 1
        return array.tobytes()

    @staticmethod
    def window_keys(snapshot_key, ys, xs, window_hw):
        return [(snapshot_key, y0, x0, *window_hw) for y0 in ys for x0 in xs]

    def get(self, key):
        return self.store.get(key)

    def put(self, key, value):
        self.puts += 1
        self.store[key] = value


def reference_blend(outs, ys, xs, image_hw, window_hw):
    """Per-call blend, weights and normalizer rebuilt for every snapshot:
    the reference the per-geometry weights must match bit for bit."""
    h, w = image_hw
    wh, ww = window_hw
    weight_2d = tent_window(wh)[:, None] * tent_window(ww)[None, :]
    acc = None
    weight_acc = np.zeros((h, w))
    i = 0
    for y0 in ys:
        for x0 in xs:
            out = outs[i].astype(np.float64)
            i += 1
            if acc is None:
                acc = np.zeros((out.shape[0], h, w))
            acc[:, y0: y0 + wh, x0: x0 + ww] += out * weight_2d
            weight_acc[y0: y0 + wh, x0: x0 + ww] += weight_2d
    return (acc / np.maximum(weight_acc, 1e-12)).astype(np.float32)


class TestTilePositions:
    def test_covers_extent(self):
        pos = tile_positions(10, 4, 3)
        assert pos[0] == 0
        assert pos[-1] == 6
        covered = set()
        for p in pos:
            covered.update(range(p, p + 4))
        assert covered == set(range(10))

    def test_exact_fit_single_tile(self):
        assert tile_positions(8, 8, 8) == [0]

    def test_flush_right_appended(self):
        assert tile_positions(10, 4, 4)[-1] == 6

    def test_validation(self):
        with pytest.raises(ValueError):
            tile_positions(4, 8, 2)
        with pytest.raises(ValueError):
            tile_positions(8, 4, 0)
        with pytest.raises(ValueError):
            tile_positions(8, 4, 5)


class TestTentWindow:
    def test_symmetric_positive(self):
        w = tent_window(6)
        np.testing.assert_allclose(w, w[::-1])
        assert (w > 0).all()
        assert w.max() == 1.0

    def test_odd_length_peak_center(self):
        w = tent_window(5)
        assert np.argmax(w) == 2


class TestSlidingWindow:
    def test_constant_model_seamless(self):
        model = ConstantModel()
        image = np.zeros((4, 20, 26), dtype=np.float32)
        logits = sliding_window_logits(model, image, (8, 8), (5, 5))
        assert logits.shape == (3, 20, 26)
        for k, v in enumerate((0.5, -1.0, 2.0)):
            np.testing.assert_allclose(logits[k], v, rtol=1e-5)

    def test_values_pass_through_on_overlap(self):
        # A model whose logits equal the input: blending must reproduce the
        # input exactly even where tiles overlap.
        rng = np.random.default_rng(0)
        image = rng.normal(size=(1, 16, 16)).astype(np.float32)
        logits = sliding_window_logits(MeanModel(), image, (8, 8), (4, 4))
        np.testing.assert_allclose(logits[0], image[0], rtol=1e-4, atol=1e-5)

    def test_predict_tiled_classes(self):
        model = ConstantModel((0.0, 3.0, -1.0))
        preds = predict_tiled(model, np.zeros((2, 12, 12), np.float32), (6, 6))
        assert preds.shape == (12, 12)
        assert (preds == 1).all()

    def test_default_stride_half_window(self):
        model = ConstantModel()
        out = sliding_window_logits(model, np.zeros((1, 16, 16), np.float32),
                                    (8, 8))
        assert out.shape == (3, 16, 16)

    def test_model_left_in_train_mode(self):
        model = ConstantModel()
        model.train(True)
        sliding_window_logits(model, np.zeros((1, 8, 8), np.float32), (8, 8))
        assert model.training

    def test_real_network_tiled_matches_shape(self):
        from repro.core.networks import Tiramisu, TiramisuConfig
        net = Tiramisu(TiramisuConfig(in_channels=4, base_filters=8, growth=4,
                                      down_layers=(2, 2), bottleneck_layers=2,
                                      kernel=3, dropout=0.0),
                       rng=np.random.default_rng(1))
        image = np.random.default_rng(2).normal(size=(4, 24, 32)).astype(np.float32)
        preds = predict_tiled(net, image, (16, 16))
        assert preds.shape == (24, 32)
        assert preds.min() >= 0 and preds.max() < 3


class TestBatchedForward:
    """batch_size stacks windows per model call without changing results."""

    def test_elementwise_model_batched_is_bitwise_identical(self):
        image = np.random.default_rng(3).normal(
            size=(1, 20, 20)).astype(np.float32)
        single = sliding_window_logits(MeanModel(), image, (8, 8), (4, 4),
                                       batch_size=1)
        batched = sliding_window_logits(MeanModel(), image, (8, 8), (4, 4),
                                        batch_size=8)
        np.testing.assert_array_equal(batched, single)

    def test_conv_network_batched_matches_unbatched(self):
        from repro.core.networks import Tiramisu, TiramisuConfig
        net = Tiramisu(TiramisuConfig(in_channels=2, base_filters=8, growth=4,
                                      down_layers=(2,), bottleneck_layers=2,
                                      kernel=3, dropout=0.0),
                       rng=np.random.default_rng(4))
        image = np.random.default_rng(5).normal(
            size=(2, 16, 16)).astype(np.float32)
        single = sliding_window_logits(net, image, (8, 8), (4, 4),
                                       batch_size=1)
        batched = sliding_window_logits(net, image, (8, 8), (4, 4),
                                        batch_size=16)
        # Stacking reassociates BLAS reductions; equality is to float
        # tolerance, not bitwise.
        np.testing.assert_allclose(batched, single, rtol=1e-4, atol=1e-5)

    def test_partial_final_chunk(self):
        image = np.random.default_rng(6).normal(
            size=(1, 16, 16)).astype(np.float32)
        # 9 windows with batch_size 4: chunks of 4, 4, 1.
        out = sliding_window_logits(MeanModel(), image, (8, 8), (4, 4),
                                    batch_size=4)
        np.testing.assert_allclose(out[0], image[0], rtol=1e-4, atol=1e-5)

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            forward_windows(MeanModel(), [np.zeros((1, 4, 4), np.float32)],
                            batch_size=0)

    def test_cache_short_circuits_repeat_windows(self):
        cache = CountingCache()
        model = CountingModel()
        image = np.random.default_rng(11).normal(
            size=(1, 16, 16)).astype(np.float32)
        first = sliding_window_logits(model, image, (8, 8), (4, 4),
                                      batch_size=4, cache=cache)
        assert model.calls == 9             # all 9 windows miss cold
        assert cache.snapshots_keyed == 1   # one hash for the snapshot
        # The repeat image is served entirely from the cache: zero forwards.
        second = sliding_window_logits(model, image, (8, 8), (4, 4),
                                       batch_size=4, cache=cache)
        assert model.calls == 9
        np.testing.assert_array_equal(first, second)
        assert cache.puts == 9

    def test_warm_repeat_never_touches_the_model(self):
        cache = CountingCache()
        model = CountingModel()
        image = np.random.default_rng(12).normal(
            size=(1, 16, 16)).astype(np.float32)
        sliding_window_logits(model, image, (8, 8), (4, 4), cache=cache)
        for training in (True, False):
            model.train(training)
            model.train_calls = 0
            sliding_window_logits(model, image, (8, 8), (4, 4), cache=cache)
            assert model.calls == 9
            assert model.train_calls == 0
            assert model.training is training

    def test_cache_requires_one_key_per_tile(self):
        tiles = [np.zeros((1, 4, 4), np.float32)] * 2
        with pytest.raises(ValueError):
            forward_windows(MeanModel(), tiles, cache=CountingCache())
        with pytest.raises(ValueError):
            forward_windows(MeanModel(), tiles, cache=CountingCache(),
                            keys=["only one"])

    def test_model_mode_restored_when_forward_raises(self):
        class Exploding(MeanModel):
            def forward(self, x):
                raise RuntimeError("forward failed")

        model = Exploding()
        model.train(True)
        with pytest.raises(RuntimeError, match="forward failed"):
            forward_windows(model, [np.zeros((1, 4, 4), np.float32)])
        assert model.training


class TestBlendWeightsPerGeometry:
    """Weights computed once per geometry blend bit for bit like the
    per-call formula."""

    @pytest.mark.parametrize("image_hw, window_hw, stride_hw", [
        ((16, 20), (8, 8), (4, 4)),         # half overlap
        ((16, 16), (4, 4), (4, 4)),         # stride == window
        ((12, 12), (12, 12), (12, 12)),     # window == extent
        ((10, 13), (4, 5), (4, 5)),         # ragged flush-right last tile
    ])
    def test_bit_identical_to_per_call_formula(self, image_hw, window_hw,
                                               stride_hw):
        ys = tile_positions(image_hw[0], window_hw[0], stride_hw[0])
        xs = tile_positions(image_hw[1], window_hw[1], stride_hw[1])
        rng = np.random.default_rng(13)
        for _ in range(2):      # the second call reuses the weights
            outs = [rng.normal(size=(3, *window_hw)).astype(np.float32)
                    for _ in range(len(ys) * len(xs))]
            got = blend_windows(outs, ys, xs, image_hw, window_hw)
            want = reference_blend(outs, ys, xs, image_hw, window_hw)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


class TestTilingEdgeCases:
    """window == extent, stride == window, and 1x1 windows."""

    def test_window_equals_extent_single_tile(self):
        image = np.random.default_rng(7).normal(
            size=(1, 12, 12)).astype(np.float32)
        out = sliding_window_logits(MeanModel(), image, (12, 12), (12, 12))
        np.testing.assert_allclose(out[0], image[0], rtol=1e-5)

    def test_stride_equals_window_no_overlap(self):
        # Non-overlapping tiling: tent weights cancel out per tile, so the
        # pass-through model must reproduce the image exactly.
        image = np.random.default_rng(8).normal(
            size=(1, 16, 16)).astype(np.float32)
        out = sliding_window_logits(MeanModel(), image, (4, 4), (4, 4))
        np.testing.assert_allclose(out[0], image[0], rtol=1e-4, atol=1e-6)

    def test_stride_equals_window_with_flush_right_remainder(self):
        # 10 with window 4, stride 4 -> positions [0, 4, 6]: the flush-right
        # tile overlaps; blending must still pass values through.
        image = np.random.default_rng(9).normal(
            size=(1, 10, 10)).astype(np.float32)
        out = sliding_window_logits(MeanModel(), image, (4, 4), (4, 4))
        np.testing.assert_allclose(out[0], image[0], rtol=1e-4, atol=1e-6)

    def test_window_one_by_one(self):
        assert tile_positions(3, 1, 1) == [0, 1, 2]
        np.testing.assert_array_equal(tent_window(1), [1.0])
        image = np.random.default_rng(10).normal(
            size=(1, 3, 3)).astype(np.float32)
        out = sliding_window_logits(MeanModel(), image, (1, 1), (1, 1))
        np.testing.assert_allclose(out[0], image[0], rtol=1e-6)

    def test_constant_logits_invariant_under_any_tiling(self):
        # The seam-free invariant: a constant-logit model yields exactly
        # constant output for every window/stride combination, including
        # the degenerate ones.
        model = ConstantModel((1.5, -0.25, 0.75))
        image = np.zeros((2, 11, 13), np.float32)
        for window, stride in (((11, 13), (11, 13)), ((4, 4), (4, 4)),
                               ((1, 1), (1, 1)), ((5, 7), (2, 3)),
                               ((8, 8), (3, 5))):
            logits = sliding_window_logits(model, image, window, stride)
            assert logits.shape == (3, 11, 13)
            for k, v in enumerate((1.5, -0.25, 0.75)):
                np.testing.assert_allclose(logits[k], v, rtol=1e-5,
                                           err_msg=f"{window}/{stride}")

    def test_blend_windows_empty_rejected(self):
        with pytest.raises(RuntimeError):
            blend_windows([], [], [], (4, 4), (2, 2))
