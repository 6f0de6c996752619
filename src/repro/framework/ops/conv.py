"""2-D convolution kernels (forward and both backward passes).

Layout is NCHW throughout, matching the paper's cuDNN workloads.  The
public entry points (:func:`conv2d_forward` and both gradients) lower each
problem to a cached :class:`~repro.framework.ops.plan.ConvPlan`: an
``as_strided`` im2col into a reusable workspace followed by a *single*
batched GEMM — the NumPy analogue of cuDNN's implicit-GEMM algorithm that
the paper's API tracing found cuDNN selecting (Section VI).  Stride and
dilation (atrous convolution, the core of the DeepLabv3+ encoder/ASPP) are
both supported.

The pre-plan kernels — one GEMM-shaped contraction per kernel tap — are
kept as ``*_reference`` functions: they are the independent oracle the
equivalence test-suite checks plans against, and the baseline the kernel
benchmark times plans against.

Mixed-precision semantics: inputs may be float16; contractions accumulate in
float32 (Tensor-Core style) and results are rounded back to the input dtype.
"""
from __future__ import annotations

import numpy as np

from ..dtypes import FP16, FP32
from .plan import get_conv_plan

__all__ = [
    "conv2d_forward",
    "conv2d_backward_input",
    "conv2d_backward_weight",
    "conv2d_forward_reference",
    "conv2d_backward_input_reference",
    "conv2d_backward_weight_reference",
    "conv_output_size",
    "conv_transpose_output_size",
    "conv2d_flops",
]


def conv_output_size(size: int, kernel: int, stride: int, padding: int, dilation: int) -> int:
    """Output length of a conv along one spatial dim (floor convention)."""
    eff = dilation * (kernel - 1) + 1
    out = (size + 2 * padding - eff) // stride + 1
    if out <= 0:
        raise ValueError(
            f"conv produces empty output: size={size} kernel={kernel} "
            f"stride={stride} padding={padding} dilation={dilation}"
        )
    return out


def conv_transpose_output_size(
    size: int, kernel: int, stride: int, padding: int, output_padding: int = 0
) -> int:
    """Output length of an undilated transposed conv along one spatial dim."""
    return (size - 1) * stride - 2 * padding + kernel + output_padding


def _acc_dtype(dtype: np.dtype) -> np.dtype:
    """Accumulation dtype: FP16 math accumulates in FP32 (Tensor Cores)."""
    return FP32 if dtype == FP16 else np.dtype(dtype)


def conv2d_forward(
    x: np.ndarray,
    w: np.ndarray,
    stride: int = 1,
    padding: int = 0,
    dilation: int = 1,
) -> np.ndarray:
    """Convolve ``x`` (N,C,H,W) with ``w`` (F,C,KH,KW); cross-correlation.

    Returns (N,F,OH,OW) in the dtype of ``x``.  Lowered to a planned
    im2col + single GEMM via the process-wide plan cache.
    """
    plan = get_conv_plan(x.shape, w.shape, stride, padding, dilation, x.dtype)
    return plan.forward(x, w)


def conv2d_backward_input(
    grad_out: np.ndarray,
    w: np.ndarray,
    x_shape: tuple[int, int, int, int],
    stride: int = 1,
    padding: int = 0,
    dilation: int = 1,
) -> np.ndarray:
    """Gradient of conv2d w.r.t. its input (cuDNN's *dgrad*); planned GEMM."""
    plan = get_conv_plan(x_shape, w.shape, stride, padding, dilation,
                         grad_out.dtype)
    return plan.backward_input(grad_out, w)


def conv2d_backward_weight(
    grad_out: np.ndarray,
    x: np.ndarray,
    w_shape: tuple[int, int, int, int],
    stride: int = 1,
    padding: int = 0,
    dilation: int = 1,
) -> np.ndarray:
    """Gradient of conv2d w.r.t. the weight (cuDNN's *wgrad*); planned GEMM.

    The weight gradient is accumulated (and returned) in FP32 even for FP16
    activations — exactly what mixed-precision training does so that the
    gradient all-reduce and master-weight update see a usable dynamic range.
    """
    plan = get_conv_plan(x.shape, w_shape, stride, padding, dilation, x.dtype)
    return plan.backward_weight(grad_out, x)


def conv2d_forward_reference(
    x: np.ndarray,
    w: np.ndarray,
    stride: int = 1,
    padding: int = 0,
    dilation: int = 1,
) -> np.ndarray:
    """Pre-plan forward: one GEMM-shaped contraction per kernel tap.

    Kept as the independent oracle for the plan equivalence suite and as
    the kernel benchmark's baseline.
    """
    n, c, h, wi = x.shape
    f, cw, kh, kw = w.shape
    if cw != c:
        raise ValueError(f"channel mismatch: input has {c}, weight expects {cw}")
    oh = conv_output_size(h, kh, stride, padding, dilation)
    ow = conv_output_size(wi, kw, stride, padding, dilation)
    acc = _acc_dtype(x.dtype)
    if padding:
        xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    else:
        xp = x
    xp = xp.astype(acc, copy=False)
    wa = w.astype(acc, copy=False)
    out = np.zeros((n, f, oh, ow), dtype=acc)
    for u in range(kh):
        for v in range(kw):
            # Input window feeding output pixel (i,j) through tap (u,v).
            xs = xp[:, :, u * dilation : u * dilation + (oh - 1) * stride + 1 : stride,
                    v * dilation : v * dilation + (ow - 1) * stride + 1 : stride]
            out += np.einsum("nchw,fc->nfhw", xs, wa[:, :, u, v], optimize=True)
    return out.astype(x.dtype, copy=False)


def conv2d_backward_input_reference(
    grad_out: np.ndarray,
    w: np.ndarray,
    x_shape: tuple[int, int, int, int],
    stride: int = 1,
    padding: int = 0,
    dilation: int = 1,
) -> np.ndarray:
    """Pre-plan dgrad: per-tap contractions + scatter (reference oracle)."""
    n, c, h, wi = x_shape
    f, _, kh, kw = w.shape
    _, _, oh, ow = grad_out.shape
    acc = _acc_dtype(grad_out.dtype)
    g = grad_out.astype(acc, copy=False)
    wa = w.astype(acc, copy=False)
    dxp = np.zeros((n, c, h + 2 * padding, wi + 2 * padding), dtype=acc)
    for u in range(kh):
        for v in range(kw):
            contrib = np.einsum("nfhw,fc->nchw", g, wa[:, :, u, v], optimize=True)
            dxp[:, :, u * dilation : u * dilation + (oh - 1) * stride + 1 : stride,
                v * dilation : v * dilation + (ow - 1) * stride + 1 : stride] += contrib
    if padding:
        dxp = dxp[:, :, padding:-padding, padding:-padding]
    return dxp.astype(grad_out.dtype, copy=False)


def conv2d_backward_weight_reference(
    grad_out: np.ndarray,
    x: np.ndarray,
    w_shape: tuple[int, int, int, int],
    stride: int = 1,
    padding: int = 0,
    dilation: int = 1,
) -> np.ndarray:
    """Pre-plan wgrad: per-tap contractions (reference oracle); FP32 out."""
    n, c, h, wi = x.shape
    f, cw, kh, kw = w_shape
    _, _, oh, ow = grad_out.shape
    acc = _acc_dtype(grad_out.dtype)
    if padding:
        xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    else:
        xp = x
    xp = xp.astype(acc, copy=False)
    g = grad_out.astype(acc, copy=False)
    dw = np.zeros((f, c, kh, kw), dtype=acc)
    for u in range(kh):
        for v in range(kw):
            xs = xp[:, :, u * dilation : u * dilation + (oh - 1) * stride + 1 : stride,
                    v * dilation : v * dilation + (ow - 1) * stride + 1 : stride]
            dw[:, :, u, v] = np.einsum("nfhw,nchw->fc", g, xs, optimize=True)
    return dw


def conv2d_flops(
    batch: int,
    in_channels: int,
    out_channels: int,
    out_h: int,
    out_w: int,
    kernel_h: int,
    kernel_w: int,
) -> int:
    """FLOPs of one direct convolution, counting multiplies and adds.

    Matches the paper's worked example (Section VI): a 3x3 conv on 1152x768
    with 48 input / 32 output channels at batch 2 is
    ``3*3*1152*768*48*32*2*2 = 48.9e9`` FLOPs.
    """
    return 2 * batch * in_channels * out_channels * out_h * out_w * kernel_h * kernel_w
