"""Work counts of one training step, exact on any host.

After one step of the conv-bound benchmark network (a Tiramisu):

* every taped convolution fills its column workspace exactly once — a
  conv's wgrad reuses its forward's columns, and a transposed conv's
  backward fills once for both its input and weight gradients;
* no plan has a single output pixel or a dead tap;
* so unit-stride dgrad always runs as an output-side shift-GEMM: no
  stride-1 plan takes dgrad columns from the workspace arena or calls the
  col2im scatter (a single-pixel plan would, at any stride).

After one rank-stacked step of the parameter-bound benchmark network (a
DeepLabv3+ whose encoder ends in 1x1 maps), every single-pixel wgrad is an
outer product, so the step issues no GEMM with a contraction length of 1,
and the taps that read only padding are neither multiplied nor scattered.
"""
import numpy as np
import pytest

from repro.core import DistributedTrainer, TrainConfig, Trainer
from repro.core.networks import (DeepLabConfig, DeepLabV3Plus, Tiramisu,
                                 TiramisuConfig)
from repro.framework import Tensor
from repro.framework.layers import Conv2D, ConvTranspose2D
from repro.framework.ops import ConvPlan, clear_plan_cache, workspace_stats
from repro.framework.ops import plan as plan_module


def _network():
    return Tiramisu(TiramisuConfig(in_channels=16, base_filters=16, growth=8,
                                   down_layers=(2, 2), bottleneck_layers=2,
                                   kernel=3),
                    rng=np.random.default_rng(1234))


def _batch():
    rng = np.random.default_rng(0)
    return (rng.normal(size=(1, 16, 16, 24)).astype(np.float32),
            rng.integers(0, 3, size=(1, 16, 24)))


def _plans(model):
    """Every live conv plan: layer-owned ones and the process-wide cache."""
    owned = [p for m in model.modules() if isinstance(m, Conv2D)
             for p in m._plans.values()]
    return owned + list(plan_module._GLOBAL_PLANS._plans.values())


def _taped_convs(loss):
    seen, stack, count = set(), [loss], 0
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        count += t.op_name.startswith(("conv2d[", "deconv["))
        stack.extend(t._parents)
    return count


def _one_step():
    clear_plan_cache()
    model = _network()
    trainer = Trainer(model, TrainConfig(lr=0.01))
    images, labels = _batch()
    trainer.train_step(images, labels)          # warm: plans exist
    for p in _plans(model):
        p.col_fills = 0
    loss = trainer.compute_loss(images, labels)
    taped = _taped_convs(loss)
    loss.backward()
    return model, taped


def test_one_column_fill_per_taped_conv():
    model, taped = _one_step()
    assert taped == 16
    assert sum(p.col_fills for p in _plans(model)) == taped


def test_tiramisu_has_no_pixel_or_dead_tap_plans():
    model, _ = _one_step()
    plans = _plans(model)
    assert all(p.oh * p.ow > 1 and len(p.live_taps) == p.kh * p.kw
               for p in plans)
    assert sum(p.pixel_wgrads + p.dead_taps_skipped for p in plans) == 0


def _deeplab():
    return DeepLabV3Plus(DeepLabConfig(in_channels=16, width=0.18,
                                       aspp_dilations=(1, 2, 3)),
                         rng=np.random.default_rng(1234))


@pytest.fixture
def stacked_deeplab_step(monkeypatch):
    """One warm four-rank stacked DeepLab step at ``train_exchange``'s
    geometry; yields its plans and the contraction length of every
    ``np.matmul`` the step called."""
    clear_plan_cache()
    dut = DistributedTrainer(_deeplab, 4, TrainConfig(lr=0.01,
                                                      optimizer="larc"))
    rng = np.random.default_rng(0)
    batches = [(rng.normal(size=(1, 16, 8, 8)).astype(np.float32),
                rng.integers(0, 3, size=(1, 8, 8))) for _ in range(4)]
    dut.train_step(batches)                     # warm: plans exist
    plans = _plans(dut.model)
    for p in plans:
        p.pixel_wgrads = p.dead_taps_skipped = 0
    contractions = []
    matmul = np.matmul

    def spy(a, b, *args, **kwargs):
        contractions.append(np.shape(a)[-1])
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    dut.train_step(batches)
    monkeypatch.undo()
    return plans, contractions


def test_stacked_deeplab_step_issues_no_k1_gemm(stacked_deeplab_step):
    plans, contractions = stacked_deeplab_step
    assert contractions and 1 not in contractions
    # 47 of the step's conv wgrads have one output pixel, each of which
    # would otherwise be a K=1 GEMM.
    assert sum(p.pixel_wgrads for p in plans) == 47


def test_stacked_deeplab_step_skips_dead_taps(stacked_deeplab_step):
    plans, _ = stacked_deeplab_step
    # 1x1 maps under 3x3 kernels at dilation 1-4 keep the centre tap of 9;
    # the stride-2 3x3 convs on 2x2 maps keep 4.  Each tap is skipped once
    # by wgrad and once by dgrad.
    assert sum(p.dead_taps_skipped for p in plans) == 260


def test_stride1_plans_have_no_dgrad_columns(monkeypatch):
    # Per dgrad call: the plan's stride and how many dgrad column views it
    # took from the arena.
    calls = []
    dgrad = ConvPlan.backward_input

    def spy(plan, grad_out, w):
        before = workspace_stats()["dcols"]["requests"]
        out = dgrad(plan, grad_out, w)
        calls.append((plan.stride,
                      workspace_stats()["dcols"]["requests"] - before))
        return out

    monkeypatch.setattr(ConvPlan, "backward_input", spy)
    _one_step()
    stride1 = [taken for stride, taken in calls if stride == 1]
    strided = [taken for stride, taken in calls if stride != 1]
    assert stride1 and all(taken == 0 for taken in stride1)
    # The transposed convs' forwards are strided dgrads: the count is live.
    assert strided and all(taken == 1 for taken in strided)


def test_col2im_runs_only_on_strided_plans(monkeypatch):
    strides = []
    col2im = ConvPlan._col2im

    def spy(plan, d6, dxp):
        strides.append(plan.stride)
        return col2im(plan, d6, dxp)

    monkeypatch.setattr(ConvPlan, "_col2im", spy)
    _one_step()
    # The transposed convs' forwards are strided dgrads, so the spy is live.
    assert strides and 1 not in strides


def test_conv_transpose_backward_fills_once():
    clear_plan_cache()
    layer = ConvTranspose2D(6, 4, 3, stride=2, padding=1, output_padding=1,
                            rng=np.random.default_rng(0))
    x = Tensor(np.random.default_rng(1).normal(size=(2, 6, 5, 7))
               .astype(np.float32), requires_grad=True)
    out = layer(x)
    plans = list(plan_module._GLOBAL_PLANS._plans.values())
    fills = sum(p.col_fills for p in plans)
    out.sum().backward()
    assert sum(p.col_fills for p in plans) == fills + 1
    assert x.grad is not None and layer.weight.grad is not None
