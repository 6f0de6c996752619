"""Batch-1 kernel trims are bit-identical to the formulas they replace.

``ConvPlan.backward_weight_from_cols`` skips the batch reduction for a
one-sample batch, and ``batchnorm_forward`` hands its mean to ``var``
instead of reducing it twice.  Each is pinned with ``np.array_equal``
against the old formula, inlined here.
"""
import numpy as np
import pytest

from repro.framework.ops import ConvPlan
from repro.framework.ops.norm import batchnorm_forward

DTYPES = [np.float16, np.float32, np.float64]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("n", [1, 2])
def test_conv_wgrad_matches_batch_sum(n, dtype):
    rng = np.random.default_rng(n)
    x = rng.normal(size=(n, 5, 7, 6)).astype(dtype)
    w_shape = (4, 5, 3, 3)
    plan = ConvPlan(x.shape, w_shape, 1, 1, 1, dtype)
    grad_out = rng.normal(size=(n, 4, plan.oh, plan.ow)).astype(dtype)
    cols = plan.columns_for(plan.im2col(x), x)

    dw = plan.backward_weight_from_cols(grad_out, cols)

    g = grad_out.astype(plan.acc, copy=False).reshape(n, 4, -1)
    expect = np.matmul(g, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w_shape)
    assert dw.dtype == expect.dtype
    assert np.array_equal(dw, expect)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("n", [1, 2])
def test_batchnorm_forward_matches_two_reductions(n, dtype):
    rng = np.random.default_rng(10 + n)
    x = (rng.normal(size=(n, 6, 5, 7)) * 3 + 1).astype(dtype)
    gamma = rng.normal(size=6).astype(np.float32)
    beta = rng.normal(size=6).astype(np.float32)

    out, cache = batchnorm_forward(x, gamma, beta)

    acc = np.float64 if x.dtype == np.float64 else np.float32
    xa = x.astype(acc, copy=False)
    mean = xa.mean(axis=(0, 2, 3), keepdims=True)
    var = xa.var(axis=(0, 2, 3), keepdims=True)
    xhat = (xa - mean) * (1.0 / np.sqrt(var + 1e-5))
    expect = (gamma.reshape(1, -1, 1, 1).astype(acc) * xhat
              + beta.reshape(1, -1, 1, 1).astype(acc)).astype(x.dtype)
    assert np.array_equal(cache[-1], var)
    assert np.array_equal(cache[-2], mean)
    assert np.array_equal(out, expect)
