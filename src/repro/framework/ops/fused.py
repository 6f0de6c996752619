"""Fused inference kernel: conv + bias + ReLU.

Inference has no autodiff bookkeeping to respect, so adjacent point-wise
epilogues can ride the convolution GEMM instead of making their own passes
over the activation tensor.  :func:`conv2d_bias_relu_forward` is the
planned conv GEMM with the bias add and ReLU applied in the float32
accumulation buffer before the one round-trip back to the storage dtype
(cuDNN's ``cudnnConvolutionBiasActivationForward``).  With BatchNorm
folded into the weights (:mod:`repro.framework.fusion`), a Conv→BN→ReLU
block collapses into this single kernel; the pre-activation BN→ReLU→Conv
of Tiramisu's dense layers folds into the conv the other way
(:class:`repro.framework.fusion.FusedPreActConv`).
"""
from __future__ import annotations

import numpy as np

from .plan import get_conv_plan

__all__ = ["conv2d_bias_relu_forward"]


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
