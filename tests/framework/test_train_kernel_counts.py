"""Work counts of one training step, exact on any host.

After one step of the conv-bound benchmark network (a Tiramisu):

* every taped convolution fills its column workspace exactly once — a
  conv's wgrad reuses its forward's columns, and a transposed conv's
  backward fills once for both its input and weight gradients;
* unit-stride dgrad runs as an output-side shift-GEMM, so no stride-1
  plan allocates dgrad columns or calls the strided col2im scatter.
"""
import numpy as np

from repro.core import TrainConfig, Trainer
from repro.core.networks import Tiramisu, TiramisuConfig
from repro.framework import Tensor
from repro.framework.layers import Conv2D, ConvTranspose2D
from repro.framework.ops import ConvPlan, clear_plan_cache
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


def test_stride1_plans_have_no_dgrad_columns():
    model, _ = _one_step()
    stride1 = [p for p in _plans(model) if p.stride == 1]
    assert stride1
    assert all(p._dcols is None for p in stride1)


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
