"""Batch normalization kernels (per-channel, NCHW).

Batch norm appears in every ResNet bottleneck and Tiramisu dense layer; in
the paper's profiles it dominates the "point-wise" kernel category that is
memory- rather than math-bound (Figure 3).
"""
from __future__ import annotations

import numpy as np

__all__ = ["batchnorm_forward", "batchnorm_backward", "batchnorm_infer"]


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
    """
    acc = np.float64 if x.dtype == np.float64 else np.float32
    xa = x.astype(acc, copy=False)
    axes = (0, 2, 3)
    mean = xa.mean(axis=axes, keepdims=True)
    var = xa.var(axis=axes, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (xa - mean) * inv_std
    g = gamma.reshape(1, -1, 1, 1).astype(acc, copy=False)
    b = beta.reshape(1, -1, 1, 1).astype(acc, copy=False)
    out = (g * xhat + b).astype(x.dtype, copy=False)
    cache = (xhat, inv_std, g, x.dtype, mean, var)
    return out, cache


def batchnorm_backward(
    grad_out: np.ndarray, cache: tuple
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward pass; returns (dx, dgamma, dbeta)."""
    xhat, inv_std, g, in_dtype, *_ = cache
    acc = xhat.dtype
    go = grad_out.astype(acc, copy=False)
    axes = (0, 2, 3)
    m = go.shape[0] * go.shape[2] * go.shape[3]
    dbeta = go.sum(axis=axes)
    dgamma = (go * xhat).sum(axis=axes)
    # Standard batch-norm backward, fused form.
    dxhat = go * g
    dx = (
        inv_std
        * (dxhat - dxhat.mean(axis=axes, keepdims=True)
           - xhat * (dxhat * xhat).mean(axis=axes, keepdims=True))
    )
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
