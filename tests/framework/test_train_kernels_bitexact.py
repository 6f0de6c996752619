"""Training kernels keep the rounding order of the formulations they replace.

Unit-stride dgrad (output-side shift-GEMM), wgrad (``cols @ g^T`` where
the plan picks it) and the in-place training batch norm are faster rewrites that run every
floating-point sum in the same order as before.  The earlier formulations
are copied here as oracles and every result is pinned with
``np.array_equal`` plus its dtype: over a grid of geometries, over the
exact arrays one training step of each benchmark network feeds the kernels,
and over a three-step training trajectory run both ways.

Bit equality of the GEMM rewrites is a property of the installed BLAS, not
a theorem (swapping the forward GEMM's operands is *not* bit-equal on some
shapes), which is why the recorded geometries matter as much as the grid.
"""
import itertools

import numpy as np
import pytest

import repro.framework.layers.norm as layer_norm
from repro.core import TrainConfig, Trainer
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
    """``g @ cols^T`` per sample, summed over N."""
    n = plan.x_shape[0]
    g = grad_out.astype(plan.acc, copy=False).reshape(n, plan.out_channels, -1)
    dw = np.matmul(g, cols.transpose(0, 2, 1))
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
    assert np.array_equal(got, want)


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


def _record_step(monkeypatch, model, hw):
    """Run one training step; return the arrays each kernel was called on."""
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
    Trainer(model, TrainConfig(lr=0.01)).train_step(*batch(hw, 0))
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize("net", ["tiramisu", "deeplab"])
def test_benchmark_network_geometries(monkeypatch, net):
    model, hw = (tiramisu(), (36, 56)) if net == "tiramisu" else (deeplab(), (8, 8))
    calls = _record_step(monkeypatch, model, hw)
    assert calls["dgrad"] and calls["wgrad"] and calls["bn"]
    if net == "deeplab":
        assert {p.stride for p, *_ in calls["dgrad"]} == {1, 2}
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
