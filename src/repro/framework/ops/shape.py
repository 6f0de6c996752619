"""Shape-manipulating kernels: bilinear interpolation.

Bilinear upsampling is the cheap alternative the standard DeepLabv3+ decoder
uses; the paper replaces it with learned full-resolution deconvolutions, but
we keep bilinear available so both decoder variants can be compared (an
ablation the modified architecture implies).
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "bilinear_upsample_forward",
    "bilinear_upsample_backward",
]


def _bilinear_weights(in_size: int, out_size: int):
    """Source indices and blend weights for 1-D bilinear resampling on
    half-pixel centers (corners not aligned)."""
    if out_size == 1:
        pos = np.zeros(1)
    else:
        scale = in_size / out_size
        pos = np.maximum((np.arange(out_size) + 0.5) * scale - 0.5, 0.0)
    lo = np.floor(pos).astype(np.int64)
    lo = np.minimum(lo, in_size - 1)
    hi = np.minimum(lo + 1, in_size - 1)
    frac = (pos - lo).astype(np.float32)
    return lo, hi, frac


def bilinear_upsample_forward(x: np.ndarray, out_h: int,
                              out_w: int) -> np.ndarray:
    """Resize (N,C,H,W) to (N,C,out_h,out_w) with bilinear interpolation."""
    n, c, h, w = x.shape
    ylo, yhi, yf = _bilinear_weights(h, out_h)
    xlo, xhi, xf = _bilinear_weights(w, out_w)
    acc = np.float64 if x.dtype == np.float64 else np.float32
    xa = x.astype(acc, copy=False)
    yf2 = yf[:, None]
    xf2 = xf[None, :]
    top = xa[:, :, ylo][:, :, :, xlo] * (1 - xf2) + xa[:, :, ylo][:, :, :, xhi] * xf2
    bot = xa[:, :, yhi][:, :, :, xlo] * (1 - xf2) + xa[:, :, yhi][:, :, :, xhi] * xf2
    out = top * (1 - yf2) + bot * yf2
    return out.astype(x.dtype, copy=False)


def bilinear_upsample_backward(
    grad_out: np.ndarray,
    x_shape: tuple[int, int, int, int],
) -> np.ndarray:
    """Adjoint of bilinear resize: scatter-add the four blend contributions."""
    n, c, h, w = x_shape
    _, _, oh, ow = grad_out.shape
    ylo, yhi, yf = _bilinear_weights(h, oh)
    xlo, xhi, xf = _bilinear_weights(w, ow)
    acc = np.float64 if grad_out.dtype == np.float64 else np.float32
    g = grad_out.astype(acc, copy=False)
    dx = np.zeros((n, c, h, w), dtype=acc)
    yf2 = yf[:, None]
    xf2 = xf[None, :]
    for ys, ywt in ((ylo, 1 - yf2), (yhi, yf2)):
        for xs, xwt in ((xlo, 1 - xf2), (xhi, xf2)):
            contrib = g * (ywt * xwt)
            # Scatter along W then H via add.at on the flattened index grid.
            yy = np.repeat(ys, ow)
            xx = np.tile(xs, oh)
            flat = contrib.reshape(n, c, oh * ow)
            np.add.at(dx.reshape(n, c, h * w), (slice(None), slice(None), yy * w + xx), flat)
    return dx.astype(grad_out.dtype, copy=False)
