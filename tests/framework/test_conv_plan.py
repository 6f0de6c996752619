"""Planned im2col-GEMM convolutions: equivalence, caching, pad-once.

The plan rewrite must be invisible numerically: every planned kernel is
checked against the pre-plan per-tap reference oracle over strided,
dilated, padded, asymmetric and half-precision problems.  The stateful
parts — the LRU plan cache, the version-token workspace protocol, and the
pad-by-construction counter — get their invariants pinned directly.
"""
import numpy as np
import pytest

from repro.framework import Tensor
from repro.framework.layers import Conv2D
from repro.framework.ops import (
    ConvPlan,
    PlanCache,
    clear_plan_cache,
    conv2d_backward_input,
    conv2d_backward_input_reference,
    conv2d_backward_weight,
    conv2d_backward_weight_reference,
    conv2d_forward,
    conv2d_forward_reference,
    conv_output_size,
    get_conv_plan,
    plan_cache_stats,
)

RNG = np.random.default_rng(7)


def _case(n, c, f, h, w, k, stride, padding, dilation, dtype=np.float32,
          kw=None):
    kw = k if kw is None else kw
    x = RNG.standard_normal((n, c, h, w)).astype(dtype)
    wt = (RNG.standard_normal((f, c, k, kw)) * 0.2).astype(dtype)
    oh = conv_output_size(h, k, stride, padding, dilation)
    ow = conv_output_size(w, kw, stride, padding, dilation)
    g = RNG.standard_normal((n, f, oh, ow)).astype(dtype)
    return x, wt, g


CASES = [
    # (n, c, f, h, w, k, stride, padding, dilation)
    (2, 3, 5, 12, 14, 3, 1, 1, 1),     # the common 'same' 3x3
    (1, 4, 6, 16, 16, 3, 2, 1, 1),     # strided
    (2, 3, 4, 17, 15, 3, 1, 2, 2),     # dilated (atrous)
    (1, 2, 3, 11, 13, 5, 2, 3, 1),     # big pad, odd extents
    (1, 3, 2, 9, 9, 1, 1, 0, 1),       # pointwise, no pad
]


class TestPlannedEquivalence:
    @pytest.mark.parametrize("case", CASES, ids=[str(c) for c in CASES])
    def test_forward(self, case):
        n, c, f, h, w, k, s, p, d = case
        x, wt, _ = _case(*case)
        got = conv2d_forward(x, wt, s, p, d)
        want = conv2d_forward_reference(x, wt, s, p, d)
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("case", CASES, ids=[str(c) for c in CASES])
    def test_backward_weight(self, case):
        n, c, f, h, w, k, s, p, d = case
        x, wt, g = _case(*case)
        got = conv2d_backward_weight(g, x, wt.shape, s, p, d)
        want = conv2d_backward_weight_reference(g, x, wt.shape, s, p, d)
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("case", CASES, ids=[str(c) for c in CASES])
    def test_backward_input(self, case):
        n, c, f, h, w, k, s, p, d = case
        x, wt, g = _case(*case)
        got = conv2d_backward_input(g, wt, x.shape, s, p, d)
        want = conv2d_backward_input_reference(g, wt, x.shape, s, p, d)
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)

    def test_asymmetric_kernel(self):
        x, wt, _ = _case(1, 3, 4, 13, 11, 5, 1, 2, 1, kw=3)
        got = conv2d_forward(x, wt, 1, 2, 1)
        want = conv2d_forward_reference(x, wt, 1, 2, 1)
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)

    def test_fp16_forward_keeps_dtype(self):
        x, wt, _ = _case(1, 3, 4, 10, 12, 3, 1, 1, 1, dtype=np.float16)
        got = conv2d_forward(x, wt, 1, 1, 1)
        assert got.dtype == x.dtype
        want = conv2d_forward_reference(x, wt, 1, 1, 1)
        np.testing.assert_allclose(got.astype(np.float64),
                                   want.astype(np.float64),
                                   rtol=2e-3, atol=2e-3)

    def test_fp16_wgrad_accumulates_fp32(self):
        x, wt, g = _case(1, 3, 4, 10, 12, 3, 1, 1, 1, dtype=np.float16)
        got = conv2d_backward_weight(g, x, wt.shape, 1, 1, 1)
        want = conv2d_backward_weight_reference(g, x, wt.shape, 1, 1, 1)
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, want, rtol=1e-3, atol=1e-3)


class TestPlanCache:
    def test_lru_eviction_and_stats(self):
        cache = PlanCache(maxsize=2)
        mk = lambda h: ConvPlan((1, 2, h, h), (3, 2, 3, 3), 1, 1, 1)
        a = cache.get(("a",), lambda: mk(8))
        assert cache.get(("a",), lambda: mk(8)) is a      # hit
        cache.get(("b",), lambda: mk(9))
        cache.get(("c",), lambda: mk(10))                 # evicts "a"
        stats = cache.stats()
        assert stats == {"size": 2, "hits": 1, "misses": 3, "evictions": 1,
                         "owned_bytes": 0}
        b2 = cache.get(("a",), lambda: mk(8))
        assert b2 is not a                                # rebuilt after evict

    def test_lru_touch_on_hit(self):
        cache = PlanCache(maxsize=2)
        mk = lambda: ConvPlan((1, 1, 6, 6), (1, 1, 3, 3), 1, 1, 1)
        a = cache.get(("a",), mk)
        cache.get(("b",), mk)
        cache.get(("a",), mk)          # touch "a": "b" is now LRU
        cache.get(("c",), mk)          # evicts "b", not "a"
        assert cache.get(("a",), mk) is a

    def test_global_cache_reuses_plans(self):
        clear_plan_cache()
        x, wt, _ = _case(1, 3, 4, 10, 10, 3, 1, 1, 1)
        conv2d_forward(x, wt, 1, 1, 1)
        conv2d_forward(x, wt, 1, 1, 1)
        stats = plan_cache_stats()
        assert stats["misses"] == 1 and stats["hits"] == 1

    def test_dtype_is_part_of_the_signature(self):
        clear_plan_cache()
        shape, wshape = (1, 2, 8, 8), (3, 2, 3, 3)
        p32 = get_conv_plan(shape, wshape, 1, 1, 1, np.float32)
        p16 = get_conv_plan(shape, wshape, 1, 1, 1, np.float16)
        assert p32 is not p16


class TestWorkspaceProtocol:
    def test_version_token_detects_stale_columns(self):
        plan = ConvPlan((1, 2, 8, 8), (3, 2, 3, 3), 1, 1, 1)
        x1 = RNG.standard_normal((1, 2, 8, 8)).astype(np.float32)
        x2 = RNG.standard_normal((1, 2, 8, 8)).astype(np.float32)
        t1 = plan.im2col(x1)
        t2 = plan.im2col(x2)          # overwrites the workspace
        assert t2 != t1
        fills = plan.col_fills
        cols = plan.columns_for(t1, x1)     # stale token -> transparent refill
        assert plan.col_fills == fills + 1
        w = (RNG.standard_normal((3, 2, 3, 3)) * 0.2).astype(np.float32)
        np.testing.assert_allclose(
            plan.forward_from_cols(cols, w),
            conv2d_forward_reference(x1, w, 1, 1, 1), rtol=1e-5, atol=1e-5)

    def test_valid_token_reuses_fill(self):
        plan = ConvPlan((1, 2, 8, 8), (3, 2, 3, 3), 1, 1, 1)
        x = RNG.standard_normal((1, 2, 8, 8)).astype(np.float32)
        token = plan.im2col(x)
        fills = plan.col_fills
        plan.columns_for(token, x)
        plan.columns_for(token, x)
        assert plan.col_fills == fills      # no refill while token is valid

    def test_deepcopy_starts_cold(self):
        import copy

        plan = ConvPlan((1, 2, 8, 8), (3, 2, 3, 3), 1, 1, 1)
        x = RNG.standard_normal((1, 2, 8, 8)).astype(np.float32)
        plan.im2col(x)
        assert plan.owned_bytes == 4 * int(np.prod(plan.cols_shape))
        clone = copy.deepcopy(plan)
        assert clone.owned_bytes == 0
        assert clone.version == 0
        assert clone.key == plan.key

    def test_shape_mismatch_rejected(self):
        plan = ConvPlan((1, 2, 8, 8), (3, 2, 3, 3), 1, 1, 1)
        bad = np.zeros((1, 2, 9, 9), dtype=np.float32)
        with pytest.raises(ValueError, match="plan expects input"):
            plan.im2col(bad)


class TestPadOnce:
    """The layer-owned plan applies padding at most once per training step.

    Historically forward and wgrad each ran ``np.pad`` + im2col; the layer
    now shares one fill between them via the version token, so one
    forward + backward cycle costs exactly one pad and one column fill.
    """

    def test_layer_step_pads_once(self):
        layer = Conv2D(3, 4, 3, bias=False,
                       rng=np.random.default_rng(0))
        x = Tensor(RNG.standard_normal((2, 3, 10, 10)).astype(np.float32),
                   requires_grad=True)
        out = layer(x)
        plan = next(iter(layer._plans.values()))
        assert plan.pad_fills == 1 and plan.col_fills == 1
        out.backward()
        # wgrad reused the forward's columns; dgrad needs no im2col at all.
        assert plan.pad_fills == 1 and plan.col_fills == 1
        assert layer.weight.grad is not None
        assert x.grad is not None

    def test_double_forward_then_backward_is_safe(self):
        """Running the layer twice before backward invalidates the first
        token; the gradient must still be computed from the right input."""
        layer = Conv2D(2, 3, 3, bias=False,
                       rng=np.random.default_rng(0))
        x1 = Tensor(RNG.standard_normal((1, 2, 8, 8)).astype(np.float32),
                    requires_grad=True)
        x2 = Tensor(RNG.standard_normal((1, 2, 8, 8)).astype(np.float32),
                    requires_grad=True)
        out1 = layer(x1)
        layer(x2)                       # same shape: overwrites the workspace
        out1.backward()
        want = conv2d_backward_weight_reference(
            np.ones_like(out1.data), x1.data, layer.weight.data.shape, 1, 1, 1)
        np.testing.assert_allclose(layer.weight.grad, want,
                                   rtol=1e-5, atol=1e-5)

    def test_layer_plan_slots_bounded(self):
        from repro.framework.layers.conv import _LAYER_PLAN_SLOTS

        layer = Conv2D(2, 3, 3, bias=False,
                       rng=np.random.default_rng(0))
        for size in range(8, 8 + _LAYER_PLAN_SLOTS + 3):
            layer(Tensor(np.zeros((1, 2, size, size), dtype=np.float32)))
        assert len(layer._plans) == _LAYER_PLAN_SLOTS

    def test_layer_matches_reference_end_to_end(self):
        layer = Conv2D(3, 5, 3, stride=2, dilation=1,
                       bias=True, rng=np.random.default_rng(1))
        x = RNG.standard_normal((2, 3, 12, 12)).astype(np.float32)
        out = layer(Tensor(x))
        want = conv2d_forward_reference(x, layer.weight.data, 2, 1, 1)
        want = want + layer.bias.data.reshape(1, -1, 1, 1)
        np.testing.assert_allclose(out.data, want, rtol=1e-5, atol=1e-5)
