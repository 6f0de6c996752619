"""The no-tape forward: column-free shift-GEMM conv, argmax-free max pool.

Three things are pinned here.  *Numerics*: the pad-free shift-GEMM equals
the tap-loop reference oracle over seeded random 'same' geometry (kernel,
dilation, batch, dtype, epilogue), including maps so small that taps read
only padding; non-'same' geometry runs im2col against the same oracle.
*Selection*: the plan picks the formulation from its geometry alone.
*The split*: anything that records a tape keeps the im2col arithmetic bit
for bit, and only tape-free calls take the new path.
"""
import copy

import numpy as np
import pytest

from repro.framework import Tensor, no_grad
from repro.framework.layers import Conv2D, MaxPool2D
from repro.framework.ops import (
    ConvPlan,
    clear_plan_cache,
    clear_workspace,
    conv2d_forward,
    conv2d_forward_reference,
    get_conv_plan,
    maxpool2d_forward,
    maxpool2d_forward_notape,
    workspace_stats,
)
from repro.framework.ops.fused import conv2d_bias_relu_forward


def _oracle(x, w, padding, dilation, bias, relu):
    """Tap-loop reference in float32, epilogue applied before rounding."""
    out = conv2d_forward_reference(x.astype(np.float32), w.astype(np.float32),
                                   1, padding, dilation)
    if bias is not None:
        out = out + bias.reshape(1, -1, 1, 1)
    if relu:
        out = np.maximum(out, 0)
    return out


def _requests():
    """Views each arena role has handed out on this thread so far."""
    return {role: st["requests"] for role, st in workspace_stats().items()}


def _random_problem(rng, k, dilation, n, dtype, same_pad):
    """A stride-1 problem with more input than output channels; with
    ``same_pad`` the column-free forward is selected."""
    eff = dilation * (k - 1) + 1
    padding = dilation * (k - 1) // 2 if same_pad else 0
    h = eff + int(rng.integers(0, 9))
    w = eff + int(rng.integers(0, 9))
    hp, wp = h + 2 * padding, w + 2 * padding
    oh, ow = hp - eff + 1, wp - eff + 1
    f = int(rng.integers(1, 5))
    # C > F: with the old byte rule's C (F*hp*wp < C*oh*ow), plus a surplus.
    c = f * hp * wp // (oh * ow) + 1 + int(rng.integers(0, 6))
    x = rng.standard_normal((n, c, h, w)).astype(dtype)
    wt = (rng.standard_normal((f, c, k, k)) * 0.2).astype(dtype)
    bias = rng.standard_normal(f).astype(np.float32)
    return x, wt, bias, padding


TOL = {np.float32: dict(rtol=1e-5, atol=1e-5),
       np.float16: dict(rtol=2e-3, atol=2e-3)}


class TestColumnFreeEqualsReference:
    @pytest.mark.parametrize("dtype", [np.float32, np.float16])
    @pytest.mark.parametrize("n", [1, 4])
    @pytest.mark.parametrize("dilation", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_seeded_random_geometry(self, k, dilation, n, dtype):
        rng = np.random.default_rng([k, dilation, n, np.dtype(dtype).itemsize])
        # Trial 3 is unpadded ('valid'), so it runs im2col; trial 4 is its
        # 'same' twin, with the same epilogue.
        for trial in range(5):
            use_bias, relu = bool(trial & 1) or trial == 4, trial >= 2
            same = trial != 3
            x, wt, bias, padding = _random_problem(
                rng, k, dilation, n, dtype, same_pad=same)
            plan = ConvPlan(x.shape, wt.shape, 1, padding, dilation, dtype)
            assert plan.column_free == (same or k == 1)
            before = _requests()
            got = plan.forward_notape(x, wt, bias=bias if use_bias else None,
                                      relu=relu)
            if plan.column_free:
                assert plan.colfree_forwards == 1 and plan.col_fills == 0
                # No padded copy: not even a promoting one for FP16.
                assert plan.pad_fills == 0
                assert _requests()["xp"] == before["xp"]
                assert plan.owned_bytes == 0
            else:
                assert plan.colfree_forwards == 0 and plan.col_fills == 1
            assert got.dtype == dtype and got.flags.c_contiguous
            want = _oracle(x, wt, padding, dilation,
                           bias if use_bias else None, relu)
            np.testing.assert_allclose(got.astype(np.float32), want,
                                       **TOL[dtype])

    @pytest.mark.parametrize("dtype", [np.float32, np.float16])
    @pytest.mark.parametrize("n", [1, 4])
    @pytest.mark.parametrize("dilation", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("hw", [(1, 1), (2, 3)])
    def test_maps_with_dead_taps(self, hw, k, dilation, n, dtype):
        # On a 1x1 map only the centre tap reads the input; on 2x3 at
        # dilation 3 every off-centre tap of a 3x3 kernel does not either,
        # and at dilation 1 a 5x5 kernel keeps only its |dx| = 1, 2 taps
        # along the row and its |dy| = 1 taps down the column.
        rng = np.random.default_rng([k, dilation, n, *hw])
        x = rng.standard_normal((n, 12, *hw)).astype(dtype)
        wt = (rng.standard_normal((5, 12, k, k)) * 0.2).astype(dtype)
        bias = rng.standard_normal(5).astype(np.float32)
        padding = dilation * (k - 1) // 2
        plan = ConvPlan(x.shape, wt.shape, 1, padding, dilation, dtype)
        assert plan.column_free
        for use_bias, relu in [(False, False), (True, True)]:
            got = plan.forward_notape(x, wt, bias=bias if use_bias else None,
                                      relu=relu)
            want = _oracle(x, wt, padding, dilation,
                           bias if use_bias else None, relu)
            np.testing.assert_allclose(got.astype(np.float32), want,
                                       **TOL[dtype])
        assert plan.pad_fills == 0 and plan.col_fills == 0

    @pytest.mark.parametrize("dtype", [np.float32, np.float16])
    def test_window_equals_extent(self, dtype):
        # One output pixel of an unpadded window: not 'same', so im2col.
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 30, 3, 3)).astype(dtype)
        wt = (rng.standard_normal((2, 30, 3, 3)) * 0.2).astype(dtype)
        plan = ConvPlan(x.shape, wt.shape, 1, 0, 1, dtype)
        assert not plan.column_free and (plan.oh, plan.ow) == (1, 1)
        got = plan.forward_notape(x, wt)
        assert plan.col_fills == 1 and plan.colfree_forwards == 0
        np.testing.assert_allclose(got.astype(np.float32),
                                   _oracle(x, wt, 0, 1, None, False),
                                   **TOL[dtype])

    @pytest.mark.parametrize("dtype", [np.float32, np.float16])
    def test_window_equals_extent_same(self, dtype):
        # The 'same' twin: the window spans the map, every tap is live.
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 30, 3, 3)).astype(dtype)
        wt = (rng.standard_normal((2, 30, 3, 3)) * 0.2).astype(dtype)
        plan = ConvPlan(x.shape, wt.shape, 1, 1, 1, dtype)
        assert plan.column_free and len(plan.live_taps) == 9
        got = plan.forward_notape(x, wt)
        np.testing.assert_allclose(got.astype(np.float32),
                                   _oracle(x, wt, 1, 1, None, False),
                                   **TOL[dtype])

    def test_asymmetric_kernel(self):
        # A 3x5 kernel cannot keep both extents under one padding: im2col.
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 24, 9, 11)).astype(np.float32)
        wt = (rng.standard_normal((2, 24, 3, 5)) * 0.2).astype(np.float32)
        plan = ConvPlan(x.shape, wt.shape, 1, 2, 1)
        assert not plan.column_free
        np.testing.assert_allclose(plan.forward_notape(x, wt),
                                   _oracle(x, wt, 2, 1, None, False),
                                   rtol=1e-5, atol=1e-5)
        assert plan.col_fills == 1

    def test_asymmetric_map_same(self):
        # The 'same' twin: a square 5x5 kernel on the same 9x11 map.
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 24, 9, 11)).astype(np.float32)
        wt = (rng.standard_normal((2, 24, 5, 5)) * 0.2).astype(np.float32)
        plan = ConvPlan(x.shape, wt.shape, 1, 2, 1)
        assert plan.column_free
        np.testing.assert_allclose(plan.forward_notape(x, wt),
                                   _oracle(x, wt, 2, 1, None, False),
                                   rtol=1e-5, atol=1e-5)

    def test_result_does_not_alias_the_workspace(self):
        rng = np.random.default_rng(5)
        plan = ConvPlan((1, 16, 8, 8), (2, 16, 3, 3), 1, 1, 1)
        wt = (rng.standard_normal((2, 16, 3, 3)) * 0.2).astype(np.float32)
        x1 = rng.standard_normal((1, 16, 8, 8)).astype(np.float32)
        first = plan.forward_notape(x1, wt)
        kept = first.copy()
        plan.forward_notape(-x1, wt)
        np.testing.assert_array_equal(first, kept)

    def test_pointwise_is_zero_copy(self):
        # 1x1, no padding, accumulation dtype in: no pad fill, no columns,
        # and the GEMM result is handed back as is.
        rng = np.random.default_rng(6)
        x = rng.standard_normal((2, 12, 7, 5)).astype(np.float32)
        wt = rng.standard_normal((3, 12, 1, 1)).astype(np.float32)
        plan = ConvPlan(x.shape, wt.shape)
        before = _requests()
        got = plan.forward_notape(x, wt)
        assert plan.column_free
        assert plan.pad_fills == 0 and plan.col_fills == 0
        # No scratch at all: no padded input, no columns, no tap GEMM.
        assert _requests() == before and plan.owned_bytes == 0
        np.testing.assert_allclose(got, _oracle(x, wt, 0, 1, None, False),
                                   rtol=1e-5, atol=1e-5)

    def test_padded_pointwise(self):
        # A padded 1x1 grows the map: not 'same', so im2col.
        rng = np.random.default_rng(14)
        x = rng.standard_normal((2, 12, 6, 5)).astype(np.float16)
        wt = rng.standard_normal((3, 12, 1, 1)).astype(np.float16)
        bias = rng.standard_normal(3).astype(np.float32)
        plan = ConvPlan(x.shape, wt.shape, 1, 2, 1, np.float16)
        assert not plan.column_free and (plan.oh, plan.ow) == (10, 9)
        got = plan.forward_notape(x, wt, bias=bias, relu=True)
        assert plan.col_fills == 1
        np.testing.assert_allclose(got.astype(np.float32),
                                   _oracle(x, wt, 2, 1, bias, True),
                                   **TOL[np.float16])

    def test_unpadded_pointwise_same(self):
        # The 'same' twin: the same FP16 1x1 with its epilogue, unpadded.
        rng = np.random.default_rng(14)
        x = rng.standard_normal((2, 12, 6, 5)).astype(np.float16)
        wt = rng.standard_normal((3, 12, 1, 1)).astype(np.float16)
        bias = rng.standard_normal(3).astype(np.float32)
        plan = ConvPlan(x.shape, wt.shape, 1, 0, 1, np.float16)
        assert plan.column_free
        got = plan.forward_notape(x, wt, bias=bias, relu=True)
        assert plan.col_fills == 0 and plan.pad_fills == 0
        np.testing.assert_allclose(got.astype(np.float32),
                                   _oracle(x, wt, 0, 1, bias, True),
                                   **TOL[np.float16])

    def test_non_contiguous_input(self):
        rng = np.random.default_rng(7)
        big = rng.standard_normal((2, 20, 10, 12)).astype(np.float32)
        x = big[:, :, ::2, :]
        wt = rng.standard_normal((2, 20, 1, 1)).astype(np.float32)
        plan = ConvPlan(x.shape, wt.shape)
        np.testing.assert_allclose(
            plan.forward_notape(x, wt),
            _oracle(np.ascontiguousarray(x), wt, 0, 1, None, False),
            rtol=1e-5, atol=1e-5)


class TestSelection:
    def test_many_in_few_out_engages(self):
        assert ConvPlan((1, 48, 32, 48), (8, 48, 3, 3), 1, 1, 1).column_free

    def test_square_channels_do_not(self):
        # F == C: the per-tap GEMM output is as large as the columns.
        assert not ConvPlan((1, 16, 32, 48), (16, 16, 3, 3), 1, 1, 1).column_free

    def test_pointwise_engages_at_any_width(self):
        # A 1x1 GEMM reads the input as it stands (Tiramisu's transition
        # down convs are C -> C).
        assert ConvPlan((1, 16, 32, 48), (16, 16, 1, 1)).column_free
        assert ConvPlan((1, 8, 32, 48), (48, 8, 1, 1)).column_free

    def test_non_same_geometry_does_not(self):
        # 'valid' padding shrinks the map; an even kernel has no centre tap
        # even where its dilation keeps the extent.
        assert not ConvPlan((1, 48, 32, 48), (8, 48, 3, 3), 1, 0, 1).column_free
        assert not ConvPlan((1, 48, 32, 48), (8, 48, 2, 2), 1, 1, 2).column_free

    def test_stride_two_does_not(self):
        assert not ConvPlan((1, 48, 32, 48), (8, 48, 3, 3), 2, 1, 1).column_free

    def test_wide_output_does_not(self):
        assert not ConvPlan((1, 8, 32, 48), (48, 8, 3, 3), 1, 1, 1).column_free

    def test_unselected_plan_runs_im2col_bit_for_bit(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((2, 16, 10, 10)).astype(np.float32)
        wt = (rng.standard_normal((16, 16, 3, 3)) * 0.2).astype(np.float32)
        bias = rng.standard_normal(16).astype(np.float32)
        a = ConvPlan(x.shape, wt.shape, 1, 1, 1)
        b = ConvPlan(x.shape, wt.shape, 1, 1, 1)
        got = a.forward_notape(x, wt, bias=bias, relu=True)
        assert a.colfree_forwards == 0 and a.col_fills == 1
        np.testing.assert_array_equal(
            got, b.forward(x, wt, bias=bias, relu=True))

    def test_workspace_is_smaller_than_the_columns_it_replaces(self):
        clear_workspace()
        plan = ConvPlan((9, 48, 32, 48), (8, 48, 3, 3), 1, 1, 1)
        x = np.zeros(plan.x_shape, dtype=np.float32)
        plan.forward_notape(x, np.zeros(plan.w_shape, dtype=np.float32))
        stats = workspace_stats()
        assert plan.owned_bytes == 0
        assert stats["cols"]["bytes"] == 0 and stats["xp"]["bytes"] == 0
        assert stats["tap_gemm"]["requests"] == 1
        assert 0 < stats["tap_gemm"]["bytes"] < 4 * int(np.prod(plan.cols_shape))


class TestTapeSplit:
    """Taped calls keep im2col; only tape-free calls go column-free."""

    def _layer_and_input(self):
        layer = Conv2D(48, 8, 3, bias=True,
                       rng=np.random.default_rng(0))
        x = np.random.default_rng(9).standard_normal(
            (2, 48, 12, 14)).astype(np.float32)
        return layer, x

    def test_grad_enabled_fills_columns_and_matches_plan_forward(self):
        layer, x = self._layer_and_input()
        out = layer(Tensor(x))
        plan = next(iter(layer._plans.values()))
        assert plan.column_free
        assert plan.col_fills == 1 and plan.colfree_forwards == 0
        fresh = ConvPlan(x.shape, layer.weight.data.shape, 1, 1, 1)
        want = Tensor(fresh.forward(x, layer.weight.data)) \
            + layer.bias.reshape(1, -1, 1, 1)
        np.testing.assert_array_equal(out.data, want.data)
        out.sum().backward()
        assert layer.weight.grad is not None

    def test_no_grad_goes_column_free(self):
        layer, x = self._layer_and_input()
        with no_grad():
            out = layer(Tensor(x))
        plan = next(iter(layer._plans.values()))
        assert plan.col_fills == 0 and plan.colfree_forwards == 1
        assert plan.owned_bytes == 0
        assert not out.requires_grad
        want = _oracle(x, layer.weight.data, 1, 1, layer.bias.data, False)
        np.testing.assert_allclose(out.data, want, rtol=1e-5, atol=1e-5)

    def test_frozen_parameters_go_column_free_with_grad_enabled(self):
        layer, x = self._layer_and_input()
        layer.weight.requires_grad = False
        layer(Tensor(x))
        plan = next(iter(layer._plans.values()))
        assert plan.col_fills == 0 and plan.colfree_forwards == 1

    def test_input_gradient_alone_keeps_the_tape(self):
        layer, x = self._layer_and_input()
        layer.weight.requires_grad = False
        xt = Tensor(x, requires_grad=True)
        layer(xt).sum().backward()
        plan = next(iter(layer._plans.values()))
        assert plan.col_fills == 1 and plan.colfree_forwards == 0
        assert xt.grad is not None

    def test_functional_forward_is_untouched(self):
        clear_plan_cache()
        rng = np.random.default_rng(10)
        x = rng.standard_normal((1, 48, 10, 10)).astype(np.float32)
        wt = (rng.standard_normal((8, 48, 3, 3)) * 0.2).astype(np.float32)
        got = conv2d_forward(x, wt, 1, 1, 1)
        plan = get_conv_plan(x.shape, wt.shape, 1, 1, 1, x.dtype)
        assert plan.column_free and plan.colfree_forwards == 0
        np.testing.assert_array_equal(
            got, ConvPlan(x.shape, wt.shape, 1, 1, 1).forward(x, wt))

    def test_fused_inference_kernel_goes_column_free(self):
        clear_plan_cache()
        rng = np.random.default_rng(11)
        x = rng.standard_normal((1, 48, 10, 10)).astype(np.float32)
        wt = (rng.standard_normal((8, 48, 3, 3)) * 0.2).astype(np.float32)
        bias = rng.standard_normal(8).astype(np.float32)
        got = conv2d_bias_relu_forward(x, wt, bias, 1, 1, 1, relu=True)
        plan = get_conv_plan(x.shape, wt.shape, 1, 1, 1, x.dtype)
        assert plan.colfree_forwards == 1 and plan.col_fills == 0
        np.testing.assert_allclose(got, _oracle(x, wt, 1, 1, bias, True),
                                   rtol=1e-5, atol=1e-5)

    def test_deepcopy_drops_the_new_workspaces(self):
        # The tap GEMM output is arena scratch, so neither the plan nor its
        # copy holds it; the copy runs the same forward from a cold start.
        plan = ConvPlan((1, 16, 8, 8), (2, 16, 3, 3), 1, 1, 1)
        x = np.random.default_rng(13).standard_normal(
            plan.x_shape).astype(np.float32)
        wt = np.random.default_rng(14).standard_normal(
            plan.w_shape).astype(np.float32)
        before = _requests()["tap_gemm"]
        want = plan.forward_notape(x, wt)
        assert _requests()["tap_gemm"] == before + 1
        assert plan.owned_bytes == 0
        clone = copy.deepcopy(plan)
        assert clone.owned_bytes == 0 and clone.column_free
        np.testing.assert_array_equal(clone.forward_notape(x, wt), want)


class TestMaxPoolNoTape:
    @pytest.mark.parametrize("k,s,p", [(2, 2, 0), (3, 2, 1)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float16])
    def test_bit_equal_to_taped_output(self, k, s, p, dtype):
        x = np.random.default_rng(12).standard_normal(
            (2, 3, 9, 11)).astype(dtype)
        taped, _ = maxpool2d_forward(x, k, s, p)
        got = maxpool2d_forward_notape(x, k, s, p)
        assert got.dtype == taped.dtype
        np.testing.assert_array_equal(got, taped)

    def test_nan_in_nan_out(self):
        x = np.zeros((1, 1, 4, 4), dtype=np.float32)
        x[0, 0, 1, 1] = np.nan
        got = maxpool2d_forward_notape(x, 2, 2, 0)
        assert np.isnan(got[0, 0, 0, 0])
        assert not np.isnan(got[0, 0, 1:, 1:]).any()

    def test_layer_skips_argmax_only_without_a_tape(self, monkeypatch):
        from repro.framework.layers import pool as pool_layer

        calls = []
        real = pool_layer.maxpool2d_forward
        monkeypatch.setattr(
            pool_layer, "maxpool2d_forward",
            lambda *a: calls.append("taped") or real(*a))
        layer = MaxPool2D(3, 2, 1)
        x = np.random.default_rng(13).standard_normal(
            (1, 2, 8, 8)).astype(np.float32)
        with no_grad():
            quiet = layer(Tensor(x, requires_grad=True))
        plain = layer(Tensor(x))
        assert calls == []
        xt = Tensor(x, requires_grad=True)
        taped = layer(xt)
        assert calls == ["taped"]
        np.testing.assert_array_equal(quiet.data, taped.data)
        np.testing.assert_array_equal(plain.data, taped.data)
        taped.sum().backward()
        assert xt.grad is not None and xt.grad.sum() == taped.data.size
