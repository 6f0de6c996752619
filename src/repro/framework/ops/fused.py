"""Fused inference kernels: conv + bias + ReLU, and scale-shift + ReLU.

Inference has no autodiff bookkeeping to respect, so adjacent point-wise
epilogues can ride the convolution GEMM instead of making their own passes
over the activation tensor.  Two fusions cover the repo's networks:

* :func:`conv2d_bias_relu_forward` — the planned conv GEMM with the bias
  add and ReLU applied in the float32 accumulation buffer before the one
  round-trip back to the storage dtype (cuDNN's
  ``cudnnConvolutionBiasActivationForward``).  With BatchNorm folded into
  the weights (:mod:`repro.framework.fusion`), a Conv→BN→ReLU block
  collapses into this single kernel.
* :func:`scale_shift_relu` — per-channel ``relu(s * x + t)`` in one pass;
  the inference form of BatchNorm→ReLU chains that *cannot* be folded into
  a convolution (pre-activation blocks like Tiramisu's dense layers).
"""
from __future__ import annotations

import numpy as np

from .plan import get_conv_plan

__all__ = ["conv2d_bias_relu_forward", "scale_shift_relu"]


def conv2d_bias_relu_forward(
    x: np.ndarray,
    w: np.ndarray,
    bias: np.ndarray | None,
    stride: int = 1,
    padding: int = 0,
    dilation: int = 1,
    relu: bool = True,
) -> np.ndarray:
    """Planned conv with the bias/ReLU epilogue fused into the GEMM buffer.

    Inference-only, so it takes the plan's no-tape forward: column-free
    when that moves fewer bytes, im2col otherwise.
    """
    plan = get_conv_plan(x.shape, w.shape, stride, padding, dilation, x.dtype)
    return plan.forward_notape(x, w, bias=bias, relu=relu)


def scale_shift_relu(x: np.ndarray, scale: np.ndarray, shift: np.ndarray,
                     relu: bool = True) -> np.ndarray:
    """Per-channel ``relu(scale * x + shift)`` over NCHW in one pass.

    ``scale``/``shift`` are (C,) float32; the result keeps ``x``'s dtype.
    """
    s = scale.reshape(1, -1, 1, 1)
    t = shift.reshape(1, -1, 1, 1)
    out = x * s
    out += t
    if relu:
        np.maximum(out, 0, out=out)
    return out.astype(x.dtype, copy=False)
