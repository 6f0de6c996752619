"""Conv hot-path kernels: planned im2col-GEMM vs the legacy tap-loop.

The claim under test: lowering convolutions to a cached
:class:`~repro.framework.ops.plan.ConvPlan` (``as_strided`` im2col into a
reusable workspace + one batched GEMM) buys >= 2x forward throughput over
the legacy per-tap contraction on the paper's 16-channel 192x288 training
tiles, with the weight/input gradients riding the same cached columns.

``collect(profile)`` feeds the machine-readable protocol
(``benchmarks/runner.py``): speedup *ratios* are gated — they
transfer across machines — while absolute milliseconds are recorded
``gate=False`` as host-specific context.
"""
import numpy as np
import pytest

from repro.framework.ops import (
    ConvPlan,
    clear_plan_cache,
    clear_workspace,
    conv2d_backward_input,
    conv2d_backward_input_reference,
    conv2d_backward_weight,
    conv2d_backward_weight_reference,
    conv2d_bias_relu_forward,
    conv2d_forward,
    conv2d_forward_reference,
    conv_output_size,
    plan_cache_stats,
    workspace_stats,
)
from repro.core.networks import Tiramisu, TiramisuConfig
from repro.framework import Tensor, no_grad
from repro.framework.fusion import FusedPreActConv
from repro.framework.layers import BatchNorm2D, Conv2D, ReLU
from repro.perf import format_table

# Paper-scale training tile: 1152x768 split 6x across H and 4x across W
# keeps the per-sample aspect while fitting CI budgets.  64 filters is the
# stem width the paper's networks map their 16 input channels onto.
SHAPE = (2, 16, 192, 288)
FILTERS = 64
KERNEL = 3
PAD = 1

# One serving window stack through a Tiramisu dense layer late in its block:
# many channels in, growth-rate channels out — where the no-tape forward
# goes column-free.
NOTAPE_SHAPE = (9, 48, 32, 48)
NOTAPE_FILTERS = 8

# One Tiramisu dense layer at the conv-bound training benchmark's shape:
# 56 channels in, growth-rate 8 out, on a 36x56 grid, one sample.  Its
# backward (dgrad + wgrad) is where a training step spends most time.
BWD_SHAPE = (1, 56, 36, 56)
BWD_FILTERS = 8

# DeepLab's ASPP on train_exchange's 1x1 feature maps: a 3x3 branch at
# dilation 2 over 368 channels, four stacked ranks of one sample.  The
# weight gradient has one output pixel and eight of nine taps read only
# padding.
PIXEL_SHAPE = (4, 368, 1, 1)
PIXEL_FILTERS = 46
PIXEL_DILATION = 2

# The served model: the e2e benchmark's Tiramisu over one snapshot's stack
# of nine 32x48 windows.
FROZEN_TIRAMISU = dict(in_channels=16, base_filters=16, growth=8,
                       down_layers=(2, 2), bottleneck_layers=2, kernel=3)
FROZEN_SHAPE = (9, 16, 32, 48)

# Section V-B5's two Tiramisu designs on one 4-channel 32x48 sample: the
# original (growth 16, 3x3, deep blocks) and the redesign (growth 32, 5x5,
# half the depth).
REDESIGN = {
    "original": dict(growth=16, down_layers=(4, 4), bottleneck_layers=4, kernel=3),
    "modified": dict(growth=32, down_layers=(2, 2), bottleneck_layers=2, kernel=5),
}
REDESIGN_SHAPE = (1, 4, 32, 48)

#: profile -> (timing repeats, warmup runs)
PROFILES = {"smoke": (2, 1), "quick": (3, 1), "full": (7, 2)}


def _problem(rng, shape=SHAPE, filters=FILTERS, kernel=KERNEL):
    n, c, h, w = shape
    x = rng.standard_normal(shape).astype(np.float32)
    w_ = (rng.standard_normal((filters, c, kernel, kernel)) * 0.1).astype(np.float32)
    oh = conv_output_size(h, kernel, 1, PAD, 1)
    ow = conv_output_size(w, kernel, 1, PAD, 1)
    g = rng.standard_normal((n, filters, oh, ow)).astype(np.float32)
    return x, w_, g


def _speedups(profile: str = "quick", shape=SHAPE):
    """Paired planned-vs-reference times on the headline shape.

    Samples alternate strictly (planned, reference, planned, ...) so both
    sides see identical machine state; the speedup ratio uses the minimum
    of each side, the robust estimator on shared hosts.
    """
    from runner import paired_stats  # sibling module; dir is on sys.path

    repeats, warmup = PROFILES[profile]
    rng = np.random.default_rng(0)
    x, w, g = _problem(rng, shape)
    bias = rng.standard_normal(w.shape[0]).astype(np.float32)
    clear_plan_cache()
    out = {}
    cases = {
        "fwd": (lambda: conv2d_forward(x, w, 1, PAD, 1),
                lambda: conv2d_forward_reference(x, w, 1, PAD, 1)),
        "wgrad": (lambda: conv2d_backward_weight(g, x, w.shape, 1, PAD, 1),
                  lambda: conv2d_backward_weight_reference(
                      g, x, w.shape, 1, PAD, 1)),
        "dgrad": (lambda: conv2d_backward_input(g, w, x.shape, 1, PAD, 1),
                  lambda: conv2d_backward_input_reference(
                      g, w, x.shape, 1, PAD, 1)),
        "fused_fwd": (
            lambda: conv2d_bias_relu_forward(x, w, bias, 1, PAD, 1),
            lambda: np.maximum(
                conv2d_forward(x, w, 1, PAD, 1)
                + bias.reshape(1, -1, 1, 1), 0.0),
        ),
    }
    for name, (planned, reference) in cases.items():
        pstats, rstats = paired_stats(planned, reference,
                                      repeats=repeats, warmup=warmup)
        out[name] = {"planned": pstats, "reference": rstats}
    return out


def _notape_stats(profile: str = "quick"):
    """Paired (no-tape, im2col) forward times on the 48->8 3x3 tile."""
    from runner import paired_stats

    repeats, warmup = PROFILES[profile]
    rng = np.random.default_rng(0)
    x, w, _ = _problem(rng, NOTAPE_SHAPE, NOTAPE_FILTERS)
    notape = ConvPlan(x.shape, w.shape, 1, PAD, 1)
    im2col = ConvPlan(x.shape, w.shape, 1, PAD, 1)
    if not notape.column_free:
        raise RuntimeError("the no-tape tile no longer selects column-free")
    # Each sample is ~2-5 ms, so take more of them than the big tiles do.
    nstats, istats = paired_stats(lambda: notape.forward_notape(x, w),
                                  lambda: im2col.forward(x, w),
                                  repeats=5 * repeats, warmup=warmup)
    return {"planned": nstats, "reference": istats}


def _preact_stats(profile: str = "quick"):
    """Paired (fused, unfused) frozen pre-activation conv on the 48->8 tile.

    Unfused is what an unfrozen eval runs: BN, ReLU, then the no-tape
    conv.  Fused is the one-pass fold of all three (``FusedPreActConv``).
    """
    from runner import paired_stats

    repeats, warmup = PROFILES[profile]
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal(NOTAPE_SHAPE).astype(np.float32))
    channels = NOTAPE_SHAPE[1]
    bn = BatchNorm2D(channels)
    bn.gamma.data[:] = rng.uniform(0.5, 1.5, channels)
    bn.beta.data[:] = rng.uniform(-0.5, 0.5, channels)
    bn.rank_mean[0] = rng.normal(0.0, 0.5, channels)
    bn.rank_var[0] = rng.uniform(0.5, 2.0, channels)
    bn.eval()
    conv = Conv2D(channels, NOTAPE_FILTERS, KERNEL, bias=False, rng=rng)
    relu = ReLU()
    fused = FusedPreActConv.from_bn_conv(bn, conv)

    def unfused():
        with no_grad():
            conv(relu(bn(x)))

    fstats, ustats = paired_stats(lambda: fused(x), unfused,
                                  repeats=5 * repeats, warmup=warmup)
    return {"planned": fstats, "reference": ustats}


def _bwd_dense_stats(profile: str = "quick"):
    """Paired (planned, tap-loop) dgrad + wgrad on the dense-layer shape."""
    from runner import paired_stats

    repeats, warmup = PROFILES[profile]
    rng = np.random.default_rng(0)
    x, w, g = _problem(rng, BWD_SHAPE, BWD_FILTERS)
    clear_plan_cache()

    def planned():
        conv2d_backward_input(g, w, x.shape, 1, PAD, 1)
        conv2d_backward_weight(g, x, w.shape, 1, PAD, 1)

    def reference():
        conv2d_backward_input_reference(g, w, x.shape, 1, PAD, 1)
        conv2d_backward_weight_reference(g, x, w.shape, 1, PAD, 1)

    # Each sample is ~1-3 ms, so take more of them than the big tiles do.
    pstats, rstats = paired_stats(planned, reference,
                                  repeats=5 * repeats, warmup=warmup)
    return {"planned": pstats, "reference": rstats}


def _wgrad_pixel_stats(profile: str = "quick"):
    """Paired (single-pixel plan, K=1 GEMM) wgrad on the ASPP shape."""
    from runner import paired_stats

    repeats, warmup = PROFILES[profile]
    rng = np.random.default_rng(0)
    n, c = PIXEL_SHAPE[:2]
    d = PIXEL_DILATION
    x = rng.standard_normal(PIXEL_SHAPE).astype(np.float32)
    w_shape = (PIXEL_FILTERS, c, KERNEL, KERNEL)
    plan = ConvPlan(x.shape, w_shape, 1, d, d)
    if plan.oh * plan.ow != 1 or len(plan.live_taps) != 1:
        raise RuntimeError("the ASPP shape no longer has one pixel and tap")
    cols = plan.columns_for(plan.im2col(x), x)
    g = rng.standard_normal((n, 1, PIXEL_FILTERS, 1, 1)).astype(np.float32)

    def k1_gemm():
        for _ in range(10):
            np.matmul(g.reshape(n, PIXEL_FILTERS, 1),
                      cols.transpose(0, 2, 1)).reshape(n, *w_shape)

    def planned():
        for _ in range(10):
            plan.backward_weight_from_cols(g, cols)

    pstats, rstats = paired_stats(planned, k1_gemm,
                                  repeats=5 * repeats, warmup=warmup)
    return {"planned": pstats, "reference": rstats}


def _redesign_rate_ratio(profile: str = "quick") -> float:
    """Achieved GF/s of the redesigned Tiramisu over the original's.

    Paired fwd+bwd training steps; each design's counted FLOPs over its
    fastest step.  The redesign's wider GEMMs are the paper's reason for
    it, and BLAS rewards them as Tensor Cores do.
    """
    from runner import paired_stats

    repeats, warmup = PROFILES[profile]
    x = Tensor(np.random.default_rng(1).standard_normal(REDESIGN_SHAPE)
               .astype(np.float32), requires_grad=True)
    steps, flops = {}, {}
    for name, arch in REDESIGN.items():
        net = Tiramisu(TiramisuConfig(in_channels=4, base_filters=48,
                                      dropout=0.0, **arch),
                       rng=np.random.default_rng(0))
        flops[name] = net.analyze(REDESIGN_SHAPE[1:], batch=1).total_flops

        def step(net=net):
            net.zero_grad()
            net(x).sum().backward()

        steps[name] = step
    modified, original = paired_stats(steps["modified"], steps["original"],
                                      repeats=repeats, warmup=warmup)
    return ((flops["modified"] / modified["min_s"])
            / (flops["original"] / original["min_s"]))


def _frozen_workspace_mib() -> float:
    """Conv scratch held after one frozen Tiramisu forward on a fresh
    workspace arena: the arena's slabs plus the buffers of the model's
    plans and of the process-wide cache's (the transposed convs), MiB.

    An exact count (shapes only, no timing), so it is gated with no band.
    """
    frozen = Tiramisu(TiramisuConfig(**FROZEN_TIRAMISU),
                      rng=np.random.default_rng(1234)).freeze_for_inference()
    x = np.random.default_rng(0).standard_normal(FROZEN_SHAPE)
    clear_plan_cache()
    clear_workspace()
    with no_grad():
        frozen(Tensor(x.astype(np.float32)))
    arena = sum(st["bytes"] for st in workspace_stats().values())
    owned = sum(p.owned_bytes for m in frozen.modules()
                for p in getattr(m, "_plans", {}).values())
    return (arena + owned + plan_cache_stats()["owned_bytes"]) / 2**20


def _ratio(stats: dict) -> float:
    return stats["reference"]["min_s"] / stats["planned"]["min_s"]


def collect(profile: str = "quick"):
    """Machine-readable metrics for the ``kernels`` suite."""
    from runner import Metric

    shape = (1, 8, 48, 64) if profile == "smoke" else SHAPE
    stats = _speedups(profile, shape)
    band = {"fwd": 0.35, "wgrad": 0.35, "dgrad": 0.40}
    metrics = []
    for name, st in stats.items():
        planned = st["planned"]
        metrics.append(Metric(
            name=f"kernels.conv_{name}_speedup",
            value=_ratio(st), unit="x", higher_is_better=True,
            # The fused-epilogue win is real but small; ratios of two
            # nearly-equal GEMM times are too noisy to gate on.
            gate=name != "fused_fwd",
            tolerance=band.get(name),
            note=f"planned vs reference, shape {shape}"))
        metrics.append(Metric(
            name=f"kernels.conv_{name}_planned_ms",
            value=planned["median_s"] * 1e3, unit="ms",
            higher_is_better=False, gate=False,
            ci68=[planned["ci68_s"][0] * 1e3, planned["ci68_s"][1] * 1e3]))
    metrics.append(Metric(
        name="kernels.conv_fwd_notape_ratio",
        value=_ratio(_notape_stats(profile)), unit="x",
        higher_is_better=True, tolerance=0.4,
        note=f"im2col forward / no-tape forward, {NOTAPE_SHAPE} -> "
             f"{NOTAPE_FILTERS} filters 3x3"))
    metrics.append(Metric(
        name="kernels.preact_conv_ratio",
        value=_ratio(_preact_stats(profile)), unit="x",
        higher_is_better=True, tolerance=0.3,
        note=f"BN -> ReLU -> no-tape conv / fused pre-activation conv, "
             f"{NOTAPE_SHAPE} -> {NOTAPE_FILTERS} filters 3x3"))
    metrics.append(Metric(
        name="kernels.conv_wgrad_pixel_speedup",
        value=_ratio(_wgrad_pixel_stats(profile)), unit="x",
        higher_is_better=True, tolerance=0.5,
        note=f"K=1 GEMM / single-pixel outer product, {PIXEL_SHAPE} -> "
             f"{PIXEL_FILTERS} filters 3x3 dilation {PIXEL_DILATION}, "
             "4 stacked ranks"))
    metrics.append(Metric(
        name="kernels.conv_bwd_dense_speedup",
        value=_ratio(_bwd_dense_stats(profile)), unit="x",
        higher_is_better=True, tolerance=0.3,
        note=f"tap-loop dgrad + wgrad / planned, {BWD_SHAPE} -> "
             f"{BWD_FILTERS} filters 3x3"))
    metrics.append(Metric(
        name="kernels.redesign_rate_ratio",
        value=_redesign_rate_ratio(profile), unit="x",
        higher_is_better=True, tolerance=0.4,
        note=f"achieved GF/s, redesigned / original Tiramisu (Section "
             f"V-B5), fwd+bwd on {REDESIGN_SHAPE}"))
    metrics.append(Metric(
        name="kernels.frozen_workspace_mib",
        value=_frozen_workspace_mib(), unit="MiB",
        higher_is_better=False, tolerance=0.0,
        note=f"conv scratch held after one frozen Tiramisu forward on "
             f"{FROZEN_SHAPE}: workspace arena + plan-owned buffers"))
    return metrics


def test_planned_conv_speedup(benchmark, emit):
    """Acceptance: >= 2x planned-vs-legacy forward on the headline shape."""
    stats = benchmark.pedantic(lambda: _speedups("quick"), rounds=1,
                               iterations=1)
    rows = []
    for name, st in stats.items():
        rows.append([name,
                     f"{st['reference']['median_s'] * 1e3:.2f}",
                     f"{st['planned']['median_s'] * 1e3:.2f}",
                     f"{_ratio(st):.2f}x"])
    emit(format_table(
        ["kernel", "reference ms", "planned ms", "speedup"], rows,
        title=f"Planned im2col-GEMM vs legacy tap-loop, shape {SHAPE}"))
    assert _ratio(stats["fwd"]) >= 2.0, "forward conv speedup below 2x"
    assert _ratio(stats["wgrad"]) >= 1.2, "wgrad slower than legacy"
    assert _ratio(stats["dgrad"]) >= 1.0, "dgrad slower than legacy"


def test_planned_matches_reference(benchmark):
    """The timed kernels agree numerically before we trust the timings."""
    def run():
        rng = np.random.default_rng(1)
        x, w, g = _problem(rng, (1, 4, 24, 32), filters=6)
        out = {
            "fwd": (conv2d_forward(x, w, 1, PAD, 1),
                    conv2d_forward_reference(x, w, 1, PAD, 1)),
            "wgrad": (conv2d_backward_weight(g, x, w.shape, 1, PAD, 1),
                      conv2d_backward_weight_reference(g, x, w.shape, 1, PAD, 1)),
            "dgrad": (conv2d_backward_input(g, w, x.shape, 1, PAD, 1),
                      conv2d_backward_input_reference(g, w, x.shape, 1, PAD, 1)),
        }
        return {k: float(np.abs(a - b).max()) for k, (a, b) in out.items()}

    errs = benchmark.pedantic(run, rounds=1, iterations=1)
    for name, err in errs.items():
        assert err < 1e-4, (name, err)
