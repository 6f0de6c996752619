"""Loss functions: per-pixel weighted softmax cross-entropy.

The class-imbalance problem (Section V-B1) is the reason this module exists:
98.2% of pixels are background, so an unweighted loss lets the network win by
predicting BG everywhere.  ``weighted_cross_entropy`` takes a per-pixel
weight map — computed by the input pipeline from the label class, exactly as
in the paper — and the weighting *strategies* (inverse frequency vs inverse
square root) live in :mod:`repro.core.losses`.

All reductions are computed in float32 even for FP16 activations; the
gradient is cast back to the logits dtype, which is where half-precision
training feels large weight magnitudes (the instability the paper reports
for inverse-frequency weights).
"""
from __future__ import annotations

import numpy as np

from .graph import ShapeProbe
from .tensor import Tensor, stacked_ranks

__all__ = ["log_softmax", "weighted_cross_entropy"]


def log_softmax(logits: np.ndarray, axis: int = 1) -> np.ndarray:
    """Numerically stable log-softmax on a raw array."""
    acc = np.float64 if logits.dtype == np.float64 else np.float32
    z = logits.astype(acc, copy=False)
    z = z - z.max(axis=axis, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=axis, keepdims=True))


def weighted_cross_entropy(
    logits: Tensor,
    labels: np.ndarray,
    pixel_weights: np.ndarray | None = None,
    normalization: str = "weighted_mean",
) -> Tensor:
    """Per-pixel weighted softmax cross-entropy for segmentation.

    Parameters
    ----------
    logits:
        (N, K, H, W) class scores.
    labels:
        (N, H, W) integer class ids in [0, K).
    pixel_weights:
        (N, H, W) per-pixel loss weights (``None`` = unweighted).  The paper
        computes these in the input pipeline from the label class and ships
        them to the GPU alongside the image (Section V-B1).
    normalization:
        ``"weighted_mean"`` divides by the total weight (keeps the loss scale
        independent of the weighting strategy); ``"mean"`` divides by the
        pixel count (paper-style: weights directly scale the loss magnitude,
        which is what made inverse-frequency weights unstable in FP16).

    Inside a :class:`~repro.framework.tensor.rank_stack` of R > 1 ranks
    the loss is a length-R vector, each rank's slice normalized on its own,
    and backward seeds each slice from its own entry.
    """
    if isinstance(logits, ShapeProbe):
        return _trace_loss(logits)
    n, k, h, w = logits.shape
    labels = np.asarray(labels)
    if labels.shape != (n, h, w):
        raise ValueError(f"labels shape {labels.shape} != {(n, h, w)}")
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"labels out of range [0, {k})")
    if pixel_weights is None:
        weights = np.ones((n, h, w), dtype=np.float32)
    else:
        weights = np.asarray(pixel_weights, dtype=np.float32)
        if weights.shape != (n, h, w):
            raise ValueError(f"pixel_weights shape {weights.shape} != {(n, h, w)}")
    if normalization not in ("weighted_mean", "mean"):
        raise ValueError(f"unknown normalization {normalization!r}")
    ranks = stacked_ranks()
    parts = 1 if ranks is None else len(ranks)
    per = n // parts
    slices = [slice(i * per, (i + 1) * per) for i in range(parts)]

    logp = log_softmax(logits.data, axis=1)  # (N,K,H,W) float32+
    ni, hi, wi = np.ogrid[:n, :h, :w]
    nll = -logp[ni, labels, hi, wi]  # (N,H,W)
    weighted = weights * nll
    denoms, values = [], []
    for sl in slices:
        if normalization == "weighted_mean":
            denom = max(float(weights[sl].sum()), np.finfo(np.float32).tiny)
        else:
            denom = float(per * h * w)
        denoms.append(denom)
        values.append(float(weighted[sl].sum() / denom))

    probs = np.exp(logp)

    def backward(g: np.ndarray) -> None:
        seeds = np.asarray(g).reshape(-1)
        grad = probs.copy()
        grad[ni, labels, hi, wi] -= 1.0
        scaled = np.empty_like(weights)
        for sl, seed, denom in zip(slices, seeds, denoms):
            np.multiply(weights[sl], float(seed) / denom, out=scaled[sl])
        grad *= scaled[:, None, :, :]
        logits.accumulate_grad(grad.astype(logits.dtype, copy=False))

    value = np.asarray(values if parts > 1 else values[0], dtype=logp.dtype)
    return Tensor.from_op(value, (logits,), backward, "weighted_xent")


def _trace_loss(logits: ShapeProbe) -> ShapeProbe:
    """Symbolic kernel records for the loss (tiny next to the convs)."""
    tr = logits.tracer
    nbytes = tr.tensor_bytes(logits.shape)
    tr.emit("softmax_xent_fwd", "pointwise_fwd", 6 * logits.size, 2 * nbytes)
    if tr.include_backward:
        tr.emit("softmax_xent_bwd", "pointwise_bwd", 3 * logits.size, 2 * nbytes)
    return ShapeProbe((1,), tr)
