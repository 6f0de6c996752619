"""The dense block's shared feature stack, against the concat chain it replaces.

``DenseBlock`` writes its input parts and every layer's new maps into one
buffer per call and tapes each view of it as the concatenation it stands
for.  Pinned here:

* the block equals a reference loop of ``F.concat`` calls bit for bit —
  output, every parameter gradient and the input gradients — in FP32 and
  FP16, for one and four samples, for one input and for the up path's two
  parts, and inside a two-rank stack;
* the views share one buffer and are read-only, so a layer that writes
  into its input fails loudly;
* the shape probe still counts one concat copy per concatenation;
* a frozen Tiramisu forward calls ``np.concatenate`` nowhere and its
  column-free convolutions fill no padded input.
"""
import copy

import numpy as np
import pytest

from repro.core.networks import DenseBlock, Tiramisu, TiramisuConfig
from repro.framework import Tensor, apply_fp16_policy, no_grad, rank_stack
from repro.framework.fusion import FusedPreActConv
from repro.framework import functional as F
from repro.framework.layers import Conv2D
from repro.framework.ops import workspace_stats

IN_CHANNELS, LAYERS, GROWTH = 6, 3, 4


def concat_chain(block, parts):
    """The dense block as a chain of concatenations: the reference."""
    stack = parts[0] if len(parts) == 1 else F.concat(parts)
    new = []
    for layer in block.layers_list:
        out = layer(stack)
        new.append(out)
        stack = F.concat([stack, out])
    return stack, (new[0] if len(new) == 1 else F.concat(new))


def shared_stack(block, parts):
    return block(parts if len(parts) > 1 else parts[0])


def _blocks(dtype, ranks=1):
    block = DenseBlock(IN_CHANNELS, LAYERS, GROWTH, kernel=3, dropout=0.2,
                       rng=np.random.default_rng(7))
    if dtype == np.float16:
        apply_fp16_policy(block)
    if ranks > 1:
        block.restack([0] * ranks)
    return block, copy.deepcopy(block)


def _parts(n, nparts, dtype):
    rng = np.random.default_rng([n, nparts])
    widths = [IN_CHANNELS] if nparts == 1 else [2, IN_CHANNELS - 2]
    return [rng.standard_normal((n, c, 6, 7)).astype(dtype) for c in widths]


def _step(block, forward, parts_data, ranks=None):
    parts = [Tensor(p, requires_grad=True) for p in parts_data]
    with rank_stack(ranks):
        stack, new = forward(block, parts)
        rng = np.random.default_rng(3)
        loss = ((stack * Tensor(rng.standard_normal(stack.shape)
                                .astype(stack.dtype))).sum()
                + (new * Tensor(rng.standard_normal(new.shape)
                                .astype(new.dtype))).sum())
        loss.backward()
    grads = {name: p.grad for name, p in block.named_parameters()}
    return stack.data, new.data, [p.grad for p in parts], grads


def _assert_same(got, want):
    for a, b in zip(got[:2], want[:2]):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)
    for a, b in zip(got[2], want[2]):
        np.testing.assert_array_equal(a, b)
    assert got[3].keys() == want[3].keys()
    for name in want[3]:
        assert want[3][name] is not None, name
        np.testing.assert_array_equal(got[3][name], want[3][name], err_msg=name)


@pytest.mark.parametrize("nparts", [1, 2])
@pytest.mark.parametrize("n", [1, 4])
@pytest.mark.parametrize("dtype", [np.float32, np.float16])
def test_bit_equal_to_the_concat_chain(dtype, n, nparts):
    block, twin = _blocks(dtype)
    parts = _parts(n, nparts, dtype)
    _assert_same(_step(block, shared_stack, parts),
                 _step(twin, concat_chain, parts))
    # Same running statistics and dropout draws afterwards, too.
    for (name, a), b in zip(block.named_parameters(), twin.parameters()):
        np.testing.assert_array_equal(a.data, b.data, err_msg=name)
    for a, b in zip(block.modules(), twin.modules()):
        if hasattr(a, "rank_mean"):
            np.testing.assert_array_equal(a.rank_mean, b.rank_mean)


@pytest.mark.parametrize("dtype", [np.float32, np.float16])
def test_bit_equal_inside_a_rank_stack(dtype):
    block, twin = _blocks(dtype, ranks=2)
    parts = _parts(4, 2, dtype)
    got = _step(block, shared_stack, parts, ranks=range(2))
    want = _step(twin, concat_chain, parts, ranks=range(2))
    _assert_same(got, want)
    assert all(g.shape[0] == 2 for g in got[3].values())


def test_views_share_one_read_only_buffer():
    block, _ = _blocks(np.float32)
    parts = [Tensor(p) for p in _parts(2, 2, np.float32)]
    stack, new = block(parts)
    assert stack.shape[1] == block.out_channels
    assert new.shape[1] == block.new_channels
    assert stack.data.base is not None and stack.data.base is new.data.base
    assert not stack.data.flags.writeable and not new.data.flags.writeable
    np.testing.assert_array_equal(stack.data[:, block.in_channels:], new.data)
    np.testing.assert_array_equal(stack.data[:, :2], parts[0].data)


def test_a_layer_that_writes_into_its_input_fails_loudly():
    block, _ = _blocks(np.float32)
    block.layers_list[1].bn.forward = lambda x: np.multiply(x.data, 2,
                                                            out=x.data)
    with pytest.raises(ValueError, match="read-only"):
        block([Tensor(p) for p in _parts(1, 2, np.float32)])


def _tiramisu():
    return Tiramisu(TiramisuConfig(in_channels=16, base_filters=16, growth=8,
                                   down_layers=(2, 2), bottleneck_layers=2,
                                   kernel=3),
                    rng=np.random.default_rng(1234))


def test_probe_counts_every_concatenation():
    model = _tiramisu()
    records = model.analyze((16, 32, 48), include_backward=False).records
    copies = [r for r in records if r.name == "concat_copy"]
    blocks = model.down_blocks + [model.bottleneck] + model.up_blocks
    # Each layer concatenates onto the stack, each block's new maps are one
    # concatenation, and each up block's input joins two parts.
    assert len(copies) == (sum(len(b.layers_list) + 1 for b in blocks)
                           + len(model.up_blocks))


def test_frozen_forward_concatenates_and_pads_nothing(monkeypatch):
    frozen = _tiramisu().freeze_for_inference()
    x = np.random.default_rng(0).standard_normal(
        (9, 16, 32, 48)).astype(np.float32)
    calls = []
    real = np.concatenate
    monkeypatch.setattr(np, "concatenate",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    before = workspace_stats()
    with no_grad():
        logits = frozen(Tensor(x))
    after = workspace_stats()
    assert logits.shape == (9, 3, 32, 48)
    assert calls == []
    # All 12 pre-activation convs (ten dense layers, two transition-down
    # 1x1s) are fused; the stem and the classifier stay plain convs.
    fused = [m for m in frozen.modules() if isinstance(m, FusedPreActConv)]
    assert len(fused) == 12
    plans = [p for m in frozen.modules()
             if isinstance(m, (Conv2D, FusedPreActConv))
             for p in m._plans.values()]
    free = [p for p in plans if p.column_free]
    # Every conv but the stem (16 -> 16, 3x3) is column-free: ten dense
    # layers (F < C), two transition-down 1x1s and the classifier 1x1.
    assert len(plans) == 14 and len(free) == 13
    assert sum(p.colfree_forwards for p in free) == len(free)
    assert sum(p.pad_fills for p in free) == 0
    # The one padded input and the one column matrix of the forward are
    # the stem's, both borrowed from the arena; no plan holds a buffer.
    stem = [p for p in plans if not p.column_free]
    assert stem[0].pad_fills == 1 and stem[0].col_fills == 1
    for role in ("xp", "cols"):
        assert after[role]["requests"] - before[role]["requests"] == 1
    assert all(p.owned_bytes == 0 for p in plans)
