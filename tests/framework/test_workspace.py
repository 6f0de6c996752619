"""The per-thread workspace arena that conv plans borrow scratch from.

A plan keeps only its taped columns; every other buffer a kernel needs is a
view of one of this thread's slabs, shared by every plan and holding
whatever the previous call left.  Pinned here:

* *every zero region is rewritten on every call*: with each slab filled
  with NaN bytes before each call, every kernel path over two interleaved
  geometries, FP32 and FP16, is bit-equal to the formulation it had when
  each plan owned zero-initialised buffers;
* *the arena is per thread*: two threads running frozen Tiramisu forwards
  at once get the serial results bit for bit;
* *memory is the largest request per role, not the sum*: after one frozen
  e2e-config Tiramisu forward on a fresh arena each slab is exactly the
  largest view its role handed out, and the model's plans hold no bytes.
"""
import copy
import threading

import numpy as np
import pytest

from repro.framework import Tensor, no_grad
from repro.framework.ops import (ConvPlan, clear_workspace, workspace,
                                 workspace_stats)
from repro.framework.ops import plan as plan_module
from tests.framework.test_conv_notape import TOL
from tests.framework.test_conv_notape import _oracle as tap_loop_oracle
from tests.framework.test_train_kernels_bitexact import (assert_bit_equal,
                                                         dgrad_oracle,
                                                         tiramisu,
                                                         wgrad_oracle)


def poison_arena():
    """Fill every slab of this thread's arena with 0xFF bytes, a NaN in
    every float dtype, so a zero region a kernel did not write shows."""
    for slab in workspace._ARENA.slabs.values():
        slab.fill(0xFF)


# -- oracles: each kernel on buffers of its own, zeroed where it reads -----


def cols_oracle(plan, x):
    """The im2col column matrix from an ``np.pad`` copy of ``x``."""
    p = plan.padding
    xp = np.pad(x.astype(plan.acc), ((0, 0), (0, 0), (p, p), (p, p)))
    n, c = plan.x_shape[:2]
    sn, sc, sh, sw = xp.strides
    view = np.lib.stride_tricks.as_strided(
        xp, (n, c, plan.kh, plan.kw, plan.oh, plan.ow),
        (sn, sc, sh * plan.dilation, sw * plan.dilation,
         sh * plan.stride, sw * plan.stride))
    return np.ascontiguousarray(view).reshape(plan.cols_shape)


def forward_oracle(plan, x, w):
    """``(F, CKK) @ cols``, rounded once to the storage dtype."""
    wmat = w.astype(plan.acc).reshape(plan.out_channels, -1)
    out = np.matmul(wmat, cols_oracle(plan, x))
    return out.reshape(plan.x_shape[0], plan.out_channels, plan.oh,
                       plan.ow).astype(plan.dtype, copy=False)


def colfree_oracle(plan, x, w):
    """The column-free forward with its tap GEMM output in a freshly
    zeroed buffer of its own, as it ran before the arena."""
    n, c, h, wi = plan.x_shape
    f, kh, kw = plan.out_channels, plan.kh, plan.kw
    d, p = plan.dilation, plan.padding
    area = h * wi
    xflat = x.astype(plan.acc).reshape(n, c, area)
    wtaps = w.astype(plan.acc).transpose(2, 3, 0, 1).reshape(kh * kw * f, c)
    if kh * kw == 1:
        out = np.matmul(wtaps, xflat)
    else:
        guard = p * (wi + 1)
        row = area + guard
        buf = np.zeros(guard + n * kh * kw * f * row, dtype=plan.acc)
        body = buf[guard:].reshape(n, kh * kw * f, row)[..., :area]
        np.matmul(wtaps, xflat, out=body)
        us = sorted({t // kw for t in plan.live_taps})
        vs = sorted({t % kw for t in plan.live_taps})
        grid = body.reshape(n, kh, kw, f, h, wi)
        for v in vs:
            dx = v * d - p
            if dx > 0:
                grid[:, us[0]:us[-1] + 1, v, :, :, :dx] = 0
            elif dx < 0:
                grid[:, us[0]:us[-1] + 1, v, :, :, dx:] = 0
        item = buf.itemsize
        first = (us[0] * kw + vs[0]) * f * row + (us[0] * wi + vs[0]) * d
        taps = np.lib.stride_tricks.as_strided(
            buf[first:], (n, f, len(us), len(vs), area),
            (kh * kw * f * row * item, row * item,
             (kw * f * row + d * wi) * item, (f * row + d) * item, item))
        out = np.empty((n, f, area), dtype=plan.acc)
        np.sum(taps, axis=(2, 3), out=out)
    return out.reshape(n, f, h, wi).astype(plan.dtype, copy=False)


# -- the poisoned arena ----------------------------------------------------

#: Two geometries, run interleaved path by path; the second's requests are
#: larger in every role, so the first runs on a slab the second left dirty.
GEOMETRIES = [(2, 12, 9, 13), (3, 20, 14, 11)]

#: name -> (filters, kernel, stride, dilation, column-free expected)
PATHS = {
    "taped_fwd": (5, 3, 1, 1, None),
    "wgrad": (5, 3, 1, 1, None),
    "dgrad_unit": (5, 3, 1, 1, None),
    "dgrad_strided": (5, 3, 2, 1, None),
    "notape_im2col": (24, 3, 1, 1, False),
    "colfree_3x3": (4, 3, 1, 1, True),
    "colfree_5x5": (4, 5, 1, 1, True),
    "colfree_dilated": (4, 3, 1, 2, True),
    "colfree_1x1": (4, 1, 1, 1, True),
}


def _case(path, shape, dtype, seed):
    f, k, s, d, free = PATHS[path]
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape).astype(dtype)
    w = (rng.standard_normal((f, shape[1], k, k)) * 0.3).astype(dtype)
    plan = ConvPlan(shape, w.shape, s, d * (k - 1) // 2, d, dtype)
    if free is not None:
        assert plan.column_free == free
    g = rng.standard_normal((shape[0], f, plan.oh, plan.ow))
    g[rng.random(g.shape) < 0.3] = 0.0
    g = g.astype(dtype)
    if path == "taped_fwd":
        return lambda: plan.forward(x, w), forward_oracle(plan, x, w)
    if path == "wgrad":
        # A fresh fill each call: the columns come from the poisoned xp.
        return (lambda: plan.backward_weight(g, x),
                wgrad_oracle(plan, g, cols_oracle(plan, x)))
    if path.startswith("dgrad"):
        return lambda: plan.backward_input(g, w), dgrad_oracle(plan, g, w)
    if path == "notape_im2col":
        return lambda: plan.forward_notape(x, w), forward_oracle(plan, x, w)
    want = colfree_oracle(plan, x, w)
    np.testing.assert_allclose(
        want.astype(np.float32),
        tap_loop_oracle(x, w, plan.padding, d, None, False), **TOL[dtype])
    return lambda: plan.forward_notape(x, w), want


@pytest.mark.parametrize("dtype", [np.float32, np.float16])
def test_poisoned_arena_changes_no_bit(dtype):
    clear_workspace()
    cases = [(path, i, *_case(path, shape, dtype, seed=i))
             for path in PATHS for i, shape in enumerate(GEOMETRIES)]
    for _, _, run, want in cases:          # grow every slab to its size
        assert_bit_equal(run(), want)
    sizes = workspace_stats()
    assert all(st["bytes"] > 0 for st in sizes.values())
    for _ in range(2):
        for path, geometry, run, want in cases:
            poison_arena()
            try:
                assert_bit_equal(run(), want)
            except AssertionError as err:
                raise AssertionError(f"{path}, geometry {geometry}") from err
    after = workspace_stats()
    assert ({r: st["grows"] for r, st in after.items()}
            == {r: st["grows"] for r, st in sizes.items()})


# -- threads ---------------------------------------------------------------


def _frozen_tiramisu():
    """The e2e benchmark's Tiramisu, frozen."""
    return tiramisu().freeze_for_inference()


def test_threads_each_get_their_own_arena():
    frozen = _frozen_tiramisu()
    rng = np.random.default_rng(3)
    inputs = [rng.standard_normal((n, 16, 32, 48)).astype(np.float32)
              for n in (2, 3)]
    with no_grad():
        serial = [frozen(Tensor(x)).data for x in inputs]
    models = [copy.deepcopy(frozen) for _ in inputs]
    start = threading.Barrier(len(inputs))
    results = [[] for _ in inputs]

    def work(i):
        start.wait()
        with no_grad():
            for _ in range(4):
                results[i].append(models[i](Tensor(inputs[i])).data)

    threads = [threading.Thread(target=work, args=(i,))
               for i in range(len(inputs))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for want, got in zip(serial, results):
        assert len(got) == 4
        for out in got:
            assert_bit_equal(out, want)


# -- memory as an exact count ----------------------------------------------


def test_frozen_forward_holds_the_largest_request_per_role(monkeypatch):
    frozen = _frozen_tiramisu()
    x = np.random.default_rng(0).standard_normal(
        (9, 16, 32, 48)).astype(np.float32)
    requests = []
    take = plan_module.take

    def spy(role, shape, dtype):
        requests.append((role, int(np.prod(shape)) * np.dtype(dtype).itemsize))
        return take(role, shape, dtype)

    monkeypatch.setattr(plan_module, "take", spy)
    clear_workspace()
    with no_grad():
        frozen(Tensor(x))
    stats = workspace_stats()
    for role, st in stats.items():
        sizes = [nbytes for r, nbytes in requests if r == role]
        assert st["requests"] == len(sizes)
        assert st["bytes"] == max(sizes, default=0)
        # A slab grows only on a request larger than all before it.
        assert st["grows"] == sum(
            size > max(sizes[:i], default=0) for i, size in enumerate(sizes))
    # Shared, not summed: the tap GEMM output of ten dense layers and the
    # column GEMMs of two transposed convs each fit in one slab.
    assert stats["tap_gemm"]["requests"] == 10
    assert stats["dcols"]["requests"] == 2
    total = sum(st["bytes"] for st in stats.values())
    assert total < sum(nbytes for _, nbytes in requests)
    plans = [p for m in frozen.modules()
             for p in getattr(m, "_plans", {}).values()]
    assert len(plans) == 14 and sum(p.owned_bytes for p in plans) == 0
