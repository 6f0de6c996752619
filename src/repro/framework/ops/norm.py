"""Batch normalization kernels (per-channel, NCHW).

Batch norm appears in every ResNet bottleneck and Tiramisu dense layer; in
the paper's profiles it dominates the "point-wise" kernel category that is
memory- rather than math-bound (Figure 3).
"""
from __future__ import annotations

import math

import numpy as np

__all__ = ["batchnorm_forward", "batchnorm_backward", "batchnorm_infer"]


def _rank_axes(ndim: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Reduction axes and per-channel broadcast shape for an NCHW array,
    or for the per-rank ``(ranks, n, C, H, W)`` layout (one set of
    statistics per rank)."""
    if ndim == 4:
        return (0, 2, 3), (1, -1, 1, 1)
    return (1, 3, 4), (1, 1, -1, 1, 1)


def batchnorm_forward(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    eps: float = 1e-5,
) -> tuple[np.ndarray, tuple]:
    """Training-mode batch norm over (N,H,W) per channel.

    Returns ``(out, cache)``; statistics are computed in float32 even for
    half inputs (matching cuDNN's CUDNN_BATCHNORM_SPATIAL with FP32 params).
    The cache ends with the batch ``(mean, var)`` (keepdims, accumulation
    dtype) so the layer's running-stat update need not reduce ``x`` again.
    A 5-D ``x`` is ``(ranks, n, C, H, W)``: each rank's slice is normalized
    over its own ``(n, H, W)`` (the paper's per-GPU batch norm), and the
    cached statistics keep the rank axis.
    """
    acc = np.float64 if x.dtype == np.float64 else np.float32
    xa = x.astype(acc, copy=False)
    axes, channel = _rank_axes(x.ndim)
    count = np.intp(math.prod(x.shape[a] for a in axes))
    mean = xa.mean(axis=axes, keepdims=True)
    # Center once: ``xc`` feeds the variance and then becomes x-hat in
    # place.  The variance runs the ufuncs ``ndarray.var(mean=mean)`` runs
    # (subtract, square, add.reduce, true_divide by an intp count), so
    # every statistic rounds exactly as the two-call form does.
    xc = np.subtract(xa, mean)
    sq = np.square(xc)
    var = np.add.reduce(sq, axis=axes, keepdims=True)
    np.true_divide(var, count, out=var, casting="unsafe")
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = np.multiply(xc, inv_std, out=xc)
    g = gamma.reshape(channel).astype(acc, copy=False)
    b = beta.reshape(channel).astype(acc, copy=False)
    out = np.multiply(g, xhat, out=sq)
    out += b
    cache = (xhat, inv_std, g, x.dtype, mean, var)
    return out.astype(x.dtype, copy=False), cache


def batchnorm_backward(
    grad_out: np.ndarray, cache: tuple
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward pass; returns (dx, dgamma, dbeta), the parameter gradients
    one row per rank for a per-rank (5-D) forward."""
    xhat, inv_std, g, in_dtype, *_ = cache
    acc = xhat.dtype
    go = grad_out.astype(acc, copy=False)
    axes, _ = _rank_axes(xhat.ndim)
    # Standard batch-norm backward, fused form
    #   dx = inv_std * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)),
    # evaluated term by term in that order in two scratch buffers.
    s1 = np.multiply(go, xhat)
    dbeta = go.sum(axis=axes)
    dgamma = s1.sum(axis=axes)
    dxhat = np.multiply(go, g)
    mean_dxhat = dxhat.mean(axis=axes, keepdims=True)
    mean_dxhat_xhat = np.multiply(dxhat, xhat, out=s1).mean(axis=axes,
                                                            keepdims=True)
    dx = np.subtract(dxhat, mean_dxhat, out=dxhat)
    dx -= np.multiply(xhat, mean_dxhat_xhat, out=s1)
    np.multiply(inv_std, dx, out=dx)
    # Parameter grads stay FP32 (the cuDNN convention) unless running in
    # double precision (gradient-check mode).
    param_dtype = np.float64 if acc == np.float64 else np.float32
    return (dx.astype(in_dtype, copy=False), dgamma.astype(param_dtype),
            dbeta.astype(param_dtype))


def batchnorm_infer(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    eps: float = 1e-5,
) -> np.ndarray:
    """Inference-mode batch norm using running statistics."""
    acc = np.float64 if x.dtype == np.float64 else np.float32
    scale = (gamma / np.sqrt(running_var + eps)).astype(acc)
    shift = (beta - running_mean * scale).astype(acc)
    out = x.astype(acc, copy=False) * scale.reshape(1, -1, 1, 1) + shift.reshape(1, -1, 1, 1)
    return out.astype(x.dtype, copy=False)
