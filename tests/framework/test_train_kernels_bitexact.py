"""Training kernels keep the rounding order of the formulations they replace.

Unit-stride dgrad (output-side shift-GEMM), wgrad (``cols @ g^T`` where
the plan picks it), the single-pixel wgrad (an outer product instead of a
K=1 GEMM), dead-tap skipping and the in-place training batch norm are
faster rewrites that run every floating-point sum in the same order as
before.  The earlier formulations are copied here as oracles and every
result is pinned by its bit pattern, layout and dtype: over a grid of
geometries, over tiny maps where most dilated taps read only padding, over
the exact arrays one training step of each benchmark network feeds the
kernels, and over a three-step training trajectory run both ways.

Bit equality of the GEMM rewrites is a property of the installed BLAS, not
a theorem (swapping the forward GEMM's operands is *not* bit-equal on some
shapes), which is why the recorded geometries matter as much as the grid.
"""
import itertools

import numpy as np
import pytest

import repro.framework.layers.norm as layer_norm
from repro.core import DistributedTrainer, TrainConfig, Trainer
from repro.core.networks import (DeepLabConfig, DeepLabV3Plus, Tiramisu,
                                 TiramisuConfig)
from repro.framework.ops import ConvPlan, clear_plan_cache
from repro.framework.ops.norm import batchnorm_backward, batchnorm_forward

# -- oracles: the formulations the kernels replaced, verbatim --------------


def dgrad_oracle(plan, grad_out, w):
    """Column GEMM over F, then K*K strided col2im adds into a zero grid."""
    n, c, h, wi = plan.x_shape
    f, kh, kw = plan.out_channels, plan.kh, plan.kw
    s, d = plan.stride, plan.dilation
    oh, ow = plan.oh, plan.ow
    g = grad_out.astype(plan.acc, copy=False).reshape(n, f, -1)
    wmat = w.astype(plan.acc, copy=False).reshape(f, -1)
    dcols = np.empty(plan.cols_shape, dtype=plan.acc)
    np.matmul(wmat.T, g, out=dcols)
    d6 = dcols.reshape(n, c, kh, kw, oh, ow)
    dxp = np.zeros((n, c, plan.hp, plan.wp), dtype=plan.acc)
    for u in range(kh):
        for v in range(kw):
            dxp[:, :, u * d: u * d + (oh - 1) * s + 1: s,
                v * d: v * d + (ow - 1) * s + 1: s] += d6[:, :, u, v]
    if plan.padding:
        p = plan.padding
        dxp = dxp[:, :, p:p + h, p:p + wi]
    return dxp.astype(grad_out.dtype, copy=False)


def wgrad_oracle(plan, grad_out, cols):
    """``g @ cols^T`` per sample, summed over N (over each rank's samples
    for a rank-stacked 5-D ``grad_out``)."""
    n = plan.x_shape[0]
    g = grad_out.astype(plan.acc, copy=False).reshape(n, plan.out_channels, -1)
    dw = np.matmul(g, cols.transpose(0, 2, 1))
    if grad_out.ndim == 5:
        ranks = grad_out.shape[0]
        dw = dw.reshape(ranks, n // ranks, *dw.shape[1:]).sum(axis=1)
        return dw.reshape(ranks, *plan.w_shape)
    dw = dw[0] if n == 1 else dw.sum(axis=0)
    return dw.reshape(plan.w_shape)


def bn_forward_oracle(x, gamma, beta, eps=1e-5):
    acc = np.float64 if x.dtype == np.float64 else np.float32
    xa = x.astype(acc, copy=False)
    axes = (0, 2, 3)
    mean = xa.mean(axis=axes, keepdims=True)
    var = xa.var(axis=axes, keepdims=True, mean=mean)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (xa - mean) * inv_std
    g = gamma.reshape(1, -1, 1, 1).astype(acc, copy=False)
    b = beta.reshape(1, -1, 1, 1).astype(acc, copy=False)
    out = (g * xhat + b).astype(x.dtype, copy=False)
    return out, (xhat, inv_std, g, x.dtype, mean, var)


def bn_backward_oracle(grad_out, cache):
    xhat, inv_std, g, in_dtype, *_ = cache
    acc = xhat.dtype
    go = grad_out.astype(acc, copy=False)
    axes = (0, 2, 3)
    dbeta = go.sum(axis=axes)
    dgamma = (go * xhat).sum(axis=axes)
    dxhat = go * g
    dx = (
        inv_std
        * (dxhat - dxhat.mean(axis=axes, keepdims=True)
           - xhat * (dxhat * xhat).mean(axis=axes, keepdims=True))
    )
    param_dtype = np.float64 if acc == np.float64 else np.float32
    return (dx.astype(in_dtype, copy=False), dgamma.astype(param_dtype),
            dbeta.astype(param_dtype))


def assert_bit_equal(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    # Layout too: reductions downstream (LARC norms, the FP16 unscale)
    # visit elements in memory order, so a transposed view of the same
    # values can still change the trajectory.
    assert got.strides == want.strides
    # Down to the bit pattern: ``np.array_equal`` counts -0 equal to +0,
    # and LARC velocities carry the sign of a zero gradient into
    # byte-compared checkpoints.
    bits = np.dtype(f"u{got.dtype.itemsize}")
    assert np.array_equal(got.view(bits), want.view(bits))


# -- the geometry grid -----------------------------------------------------

C_IN, H, W = 4, 9, 13
GRID = [
    dict(k=k, d=d, s=s, n=n, f=f, padding=pad, dtype=dt)
    for k, d, s, n, f, pad, dt in itertools.product(
        (1, 3, 5), (1, 2), (1, 2), (1, 4), (5, 8, 16), ("same", "valid"),
        (np.float32, np.float16))
    if not (k == 1 and d == 2)           # a 1x1 kernel has no dilation
]


def _grid_id(case):
    return (f"k{case['k']}d{case['d']}s{case['s']}n{case['n']}f{case['f']}"
            f"{case['padding']}-{np.dtype(case['dtype']).name}")


def _problem(case, seed):
    rng = np.random.default_rng(seed)
    k, d, s, dt = case["k"], case["d"], case["s"], case["dtype"]
    pad = d * (k - 1) // 2 if case["padding"] == "same" else 0
    x = rng.standard_normal((case["n"], C_IN, H, W)).astype(dt)
    w = (rng.standard_normal((case["f"], C_IN, k, k)) * 0.3).astype(dt)
    plan = ConvPlan(x.shape, w.shape, s, pad, d, dt)
    g = rng.standard_normal((case["n"], case["f"], plan.oh, plan.ow))
    # ReLU- and loss-mask-shaped gradients carry exact zeros.
    g[rng.random(g.shape) < 0.3] = 0.0
    return plan, x, w, g.astype(dt)


@pytest.mark.parametrize("case", GRID, ids=_grid_id)
def test_dgrad_matches_col2im(case):
    plan, _, w, g = _problem(case, 0)
    want = dgrad_oracle(plan, g, w)
    assert_bit_equal(plan.backward_input(g, w), want)
    # A warm workspace gives the same bits again.
    assert_bit_equal(plan.backward_input(g, w), want)


def test_grid_covers_both_wgrad_operand_orders():
    assert {_problem(case, 1)[0].wgrad_swapped for case in GRID} == {False, True}


@pytest.mark.parametrize("case", GRID, ids=_grid_id)
def test_wgrad_matches_g_cols_t(case):
    plan, x, _, g = _problem(case, 1)
    cols = plan.columns_for(plan.im2col(x), x)
    assert_bit_equal(plan.backward_weight_from_cols(g, cols),
                     wgrad_oracle(plan, g, cols))


# -- tiny maps: single-pixel wgrad and dead taps ----------------------------

#: DeepLab's ASPP on small grids: 1x1 and 2x2 maps, 3x3 kernels at dilation
#: 1-4 with padding = dilation (most taps read only padding) and the 1x1
#: branch, at both strides; ``ranks`` stacks the batch as a 5-D gradient.
TINY = [
    dict(size=size, k=k, d=d, s=s, n=n, ranks=ranks, dtype=dt)
    for size, (k, d), s, (n, ranks), dt in itertools.product(
        (1, 2), ((1, 1), (3, 1), (3, 2), (3, 3), (3, 4)), (1, 2),
        ((1, None), (1, 1), (4, None), (4, 4), (4, 2)),
        (np.float16, np.float32, np.float64))
]


def _tiny_id(case):
    stack = "" if case["ranks"] is None else f"r{case['ranks']}"
    return (f"{case['size']}x{case['size']}k{case['k']}d{case['d']}"
            f"s{case['s']}n{case['n']}{stack}-{np.dtype(case['dtype']).name}")


def _tiny_problem(case, seed):
    rng = np.random.default_rng(seed)
    k, d, dt, n = case["k"], case["d"], case["dtype"], case["n"]
    pad = d * (k - 1) // 2
    x = rng.standard_normal((n, 6, case["size"], case["size"]))
    # ReLU zeros, some for a whole channel: negative gradients times them
    # are -0 products in every sample of a rank.
    x[rng.random(x.shape) < 0.3] = 0.0
    x[:, ::3] = 0.0
    w = rng.standard_normal((5, 6, k, k)) * 0.3
    plan = ConvPlan(x.shape, w.shape, case["s"], pad, d, dt)
    g = rng.standard_normal((n, 5, plan.oh, plan.ow))
    g[rng.random(g.shape) < 0.3] = 0.0
    return plan, x.astype(dt), w.astype(dt), g.astype(dt)


def _stacked(g, ranks):
    return g if ranks is None else g.reshape(ranks, -1, *g.shape[1:])


@pytest.mark.parametrize("case", TINY, ids=_tiny_id)
def test_tiny_map_wgrad_bits(case):
    plan, x, _, g = _tiny_problem(case, 2)
    cols = plan.columns_for(plan.im2col(x), x)
    g = _stacked(g, case["ranks"])
    assert_bit_equal(plan.backward_weight_from_cols(g, cols),
                     wgrad_oracle(plan, g, cols))


@pytest.mark.parametrize("case", [c for c in TINY if c["ranks"] is None],
                         ids=_tiny_id)
def test_tiny_map_dgrad_bits(case):
    plan, _, w, g = _tiny_problem(case, 3)
    want = dgrad_oracle(plan, g, w)
    assert_bit_equal(plan.backward_input(g, w), want)
    assert_bit_equal(plan.backward_input(g, w), want)


def test_tiny_grid_takes_the_new_paths():
    plans = [_tiny_problem(case, 2)[0] for case in TINY]
    assert any(p.oh * p.ow == 1 and len(p.live_taps) == 1 for p in plans)
    assert any(p.oh * p.ow == 1 and 1 < len(p.live_taps) < 9 for p in plans)
    assert any(p.stride == 1 and p.oh * p.ow > 1 and len(p.live_taps) < 9
               for p in plans)


def test_pixel_wgrad_zero_signs_are_blas_zeros():
    """A bare outer product gives -0 where the K=1 GEMM gives +0, and the
    tiny grid's data has such entries, so it fails a dropped ``+ 0.0``."""
    case = dict(size=1, k=3, d=2, s=1, n=4, ranks=4, dtype=np.float32)
    plan, x, _, g = _tiny_problem(case, 2)
    cols = plan.columns_for(plan.im2col(x), x)
    bare = g.reshape(4, 5, 1) * cols.reshape(4, 1, -1)
    got = plan.backward_weight_from_cols(_stacked(g, 4), cols)
    got = got.reshape(bare.shape)
    flipped = np.signbit(bare) & ~np.signbit(got)
    assert flipped.any() and np.all(bare[flipped] == 0)


@pytest.mark.parametrize("hw,k,s,d,pad,live", [
    ((36, 56), 3, 1, 1, 1, tuple(range(9))),
    ((1, 1), 3, 1, 1, 1, (4,)),
    ((1, 1), 3, 1, 2, 2, (4,)),
    ((1, 1), 3, 1, 3, 3, (4,)),
    ((1, 1), 3, 1, 4, 4, (4,)),
    ((1, 1), 1, 1, 1, 0, (0,)),
    ((2, 2), 3, 1, 1, 1, tuple(range(9))),
    ((2, 2), 3, 1, 2, 2, (4,)),
    ((1, 3), 3, 1, 2, 2, (3, 4, 5)),
    ((2, 2), 3, 2, 1, 1, (4, 5, 7, 8)),
])
def test_live_taps(hw, k, s, d, pad, live):
    plan = ConvPlan((1, 2) + hw, (3, 2, k, k), s, pad, d)
    assert plan.live_taps == live


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
@pytest.mark.parametrize("shape", [(1, 8, 36, 56), (4, 6, 5, 7), (2, 3, 1, 1)])
def test_batchnorm_matches_two_call_form(shape, dtype):
    rng = np.random.default_rng(shape[0])
    x = (rng.normal(size=shape) * 3 + 1).astype(dtype)
    x[..., ::3] = 0.0
    gamma = rng.normal(size=shape[1]).astype(np.float32)
    beta = rng.normal(size=shape[1]).astype(np.float32)
    g = rng.normal(size=shape).astype(dtype)
    g[rng.random(shape) < 0.3] = 0.0

    out, cache = batchnorm_forward(x, gamma, beta)
    want_out, want_cache = bn_forward_oracle(x, gamma, beta)
    assert_bit_equal(out, want_out)
    for got_a, want_a in zip(cache, want_cache):
        if isinstance(want_a, np.ndarray):
            assert_bit_equal(got_a, want_a)
        else:
            assert got_a == want_a
    for got_a, want_a in zip(batchnorm_backward(g, cache),
                             bn_backward_oracle(g, want_cache)):
        assert_bit_equal(got_a, want_a)


# -- the benchmark networks' own geometries --------------------------------

#: The two benchmark training networks at their benchmark shapes: a
#: Tiramisu on 36x56 grids and a DeepLabv3+ at width 0.18 on 8x8, one
#: sample per rank, FP32.
TIRAMISU = dict(in_channels=16, base_filters=16, growth=8, down_layers=(2, 2),
                bottleneck_layers=2, kernel=3)


def tiramisu():
    return Tiramisu(TiramisuConfig(**TIRAMISU),
                    rng=np.random.default_rng(1234))


def deeplab(width=0.18):
    return DeepLabV3Plus(DeepLabConfig(in_channels=16, width=width,
                                       aspp_dilations=(1, 2, 3)),
                         rng=np.random.default_rng(1234))


def batch(hw, seed, n=1):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(n, 16) + hw).astype(np.float32),
            rng.integers(0, 3, size=(n,) + hw))


def _record_step(monkeypatch, step):
    """Run ``step()``, one training step; return the arrays each kernel was
    called on."""
    calls = {"dgrad": [], "wgrad": [], "bn": []}
    dgrad, wgrad = ConvPlan.backward_input, ConvPlan.backward_weight_from_cols

    def spy_dgrad(plan, grad_out, w):
        calls["dgrad"].append((plan, grad_out.copy(), w.copy()))
        return dgrad(plan, grad_out, w)

    def spy_wgrad(plan, grad_out, cols):
        calls["wgrad"].append((plan, grad_out.copy(), cols.copy()))
        return wgrad(plan, grad_out, cols)

    def spy_bn(x, gamma, beta, eps=1e-5):
        out, cache = batchnorm_forward(x, gamma, beta, eps)
        calls["bn"].append((x.copy(), gamma.copy(), beta.copy()))
        return out, cache

    monkeypatch.setattr(ConvPlan, "backward_input", spy_dgrad)
    monkeypatch.setattr(ConvPlan, "backward_weight_from_cols", spy_wgrad)
    monkeypatch.setattr(layer_norm, "batchnorm_forward", spy_bn)
    clear_plan_cache()
    step()
    monkeypatch.undo()
    return calls


#: name -> one training step.  ``deeplab-stacked`` is ``train_exchange``'s
#: step: four ranks stacked into one backward, with 5-D weight gradients.
STEPS = {
    "tiramisu": lambda: Trainer(tiramisu(), TrainConfig(lr=0.01)).train_step(
        *batch((36, 56), 0)),
    "deeplab": lambda: Trainer(deeplab(), TrainConfig(lr=0.01)).train_step(
        *batch((8, 8), 0)),
    "deeplab-stacked": lambda: DistributedTrainer(
        deeplab, 4, TrainConfig(lr=0.01)).train_step(
            [batch((8, 8), rank) for rank in range(4)]),
}


@pytest.mark.parametrize("net", sorted(STEPS))
def test_benchmark_network_geometries(monkeypatch, net):
    calls = _record_step(monkeypatch, STEPS[net])
    assert calls["dgrad"] and calls["wgrad"] and calls["bn"]
    if net == "deeplab-stacked":
        # Stacked batch norm keeps per-rank statistics, so the whole-batch
        # oracle does not apply; tests/core/test_inplace_training.py pins
        # it against per-rank replicas.
        calls["bn"] = []
    if net.startswith("deeplab"):
        assert {p.stride for p, *_ in calls["dgrad"]} == {1, 2}
        # 1x1 maps: single-pixel plans, most of them with dead taps.
        assert any(p.oh * p.ow == 1 and len(p.live_taps) < 9
                   for p, *_ in calls["wgrad"])
    if net == "deeplab-stacked":
        assert {g.ndim for _, g, _ in calls["wgrad"]} == {5}
    for plan, g, w in calls["dgrad"]:
        assert_bit_equal(plan.backward_input(g, w), dgrad_oracle(plan, g, w))
    for plan, g, cols in calls["wgrad"]:
        assert_bit_equal(plan.backward_weight_from_cols(g, cols),
                         wgrad_oracle(plan, g, cols))
    rng = np.random.default_rng(5)
    for x, gamma, beta in calls["bn"]:
        out, cache = batchnorm_forward(x, gamma, beta)
        want_out, want_cache = bn_forward_oracle(x, gamma, beta)
        assert_bit_equal(out, want_out)
        g = rng.normal(size=x.shape).astype(x.dtype)
        for got_a, want_a in zip(batchnorm_backward(g, cache),
                                 bn_backward_oracle(g, want_cache)):
            assert_bit_equal(got_a, want_a)


# -- a short trajectory, new kernels against the oracles -------------------


def _use_oracles(monkeypatch):
    monkeypatch.setattr(ConvPlan, "backward_input", dgrad_oracle)
    monkeypatch.setattr(ConvPlan, "backward_weight_from_cols", wgrad_oracle)
    monkeypatch.setattr(layer_norm, "batchnorm_forward", bn_forward_oracle)
    monkeypatch.setattr(layer_norm, "batchnorm_backward", bn_backward_oracle)


TRAJECTORIES = {
    # Tiramisu FP32 with LARC, as the conv-bound benchmark trains it.
    "tiramisu-fp32-larc": (tiramisu, (16, 24),
                           dict(optimizer="larc", precision="fp32")),
    # DeepLabv3+ FP16 with a static loss scale: strided convs, transposed
    # convs and half-precision kernels.
    "deeplab-fp16-static": (lambda: deeplab(0.05), (16, 16),
                            dict(optimizer="larc", precision="fp16",
                                 loss_scale=2.0**4, dynamic_loss_scale=False)),
}


def _trajectory(factory, hw, cfg):
    clear_plan_cache()
    trainer = Trainer(factory(), TrainConfig(lr=0.01, **cfg))
    losses = [trainer.train_step(*batch(hw, step, n=2)).loss
              for step in range(3)]
    return losses, trainer.model.state_dict()


@pytest.mark.parametrize("name", sorted(TRAJECTORIES))
def test_trajectory_matches_oracle_kernels(monkeypatch, name):
    factory, hw, cfg = TRAJECTORIES[name]
    losses, state = _trajectory(factory, hw, cfg)
    _use_oracles(monkeypatch)
    want_losses, want_state = _trajectory(factory, hw, cfg)
    assert np.all(np.isfinite(losses))
    assert np.array_equal(losses, want_losses)
    assert state.keys() == want_state.keys()
    for k in state:
        assert_bit_equal(state[k], want_state[k])
