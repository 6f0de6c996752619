"""Max pooling kernels, with overlap support.

The DeepLabv3+ encoder uses a 3x3/2 max pool after the stem conv; Tiramisu's
transition-down blocks use 2x2/2 max pools.  Both are overlapping/ or
non-overlapping cases of the same windowed kernel implemented here.
"""
from __future__ import annotations

import numpy as np

from .conv import conv_output_size

__all__ = [
    "maxpool2d_forward",
    "maxpool2d_forward_notape",
    "maxpool2d_backward",
]


def _pad_lowest(x: np.ndarray, padding: int) -> np.ndarray:
    """``x`` with a spatial border no window maximum can pick."""
    if not padding:
        return x
    fill = -np.inf if np.issubdtype(x.dtype, np.floating) else np.iinfo(x.dtype).min
    return np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)),
                  constant_values=fill)


def maxpool2d_forward(
    x: np.ndarray, kernel: int, stride: int, padding: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Max pool (N,C,H,W) -> (out, argmax_tap).

    ``argmax_tap`` holds, per output pixel, the flat tap index u*kernel+v of
    the window element that won, so the backward pass can route gradients to
    exactly one input (ties broken toward the first tap, as cuDNN does).
    """
    n, c, h, w = x.shape
    oh = conv_output_size(h, kernel, stride, padding, 1)
    ow = conv_output_size(w, kernel, stride, padding, 1)
    xp = _pad_lowest(x, padding)
    out = np.full((n, c, oh, ow), -np.inf, dtype=xp.dtype)
    arg = np.zeros((n, c, oh, ow), dtype=np.int8)
    for u in range(kernel):
        for v in range(kernel):
            xs = xp[:, :, u : u + (oh - 1) * stride + 1 : stride,
                    v : v + (ow - 1) * stride + 1 : stride]
            better = xs > out
            out = np.where(better, xs, out)
            arg = np.where(better, np.int8(u * kernel + v), arg)
    return out.astype(x.dtype, copy=False), arg


def maxpool2d_forward_notape(
    x: np.ndarray, kernel: int, stride: int, padding: int = 0
) -> np.ndarray:
    """Max pool without the argmax map, for calls no backward follows.

    One ``np.maximum`` per tap instead of a compare and two ``np.where``
    passes.  Equal to :func:`maxpool2d_forward`'s output for finite input;
    a NaN in a window propagates here, where the taped kernel's ``>`` test
    skips it.
    """
    _, _, h, w = x.shape
    oh = conv_output_size(h, kernel, stride, padding, 1)
    ow = conv_output_size(w, kernel, stride, padding, 1)
    xp = _pad_lowest(x, padding)
    out = None
    for u in range(kernel):
        for v in range(kernel):
            xs = xp[:, :, u : u + (oh - 1) * stride + 1 : stride,
                    v : v + (ow - 1) * stride + 1 : stride]
            out = xs.copy() if out is None else np.maximum(out, xs, out=out)
    return out


def maxpool2d_backward(
    grad_out: np.ndarray,
    arg: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kernel: int,
    stride: int,
    padding: int = 0,
) -> np.ndarray:
    """Route each output gradient to the winning input position."""
    n, c, h, w = x_shape
    _, _, oh, ow = grad_out.shape
    dxp = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=grad_out.dtype)
    for u in range(kernel):
        for v in range(kernel):
            mask = arg == (u * kernel + v)
            if not mask.any():
                continue
            view = dxp[:, :, u : u + (oh - 1) * stride + 1 : stride,
                       v : v + (ow - 1) * stride + 1 : stride]
            # Overlapping windows may route several outputs to one input, so
            # accumulate rather than assign.
            view += np.where(mask, grad_out, 0)
    if padding:
        dxp = dxp[:, :, padding:-padding, padding:-padding]
    return dxp

