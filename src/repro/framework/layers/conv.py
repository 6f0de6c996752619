"""Convolution layers: standard, atrous (dilated) and transposed.

Each layer supports two execution modes through the same ``forward``:

* eager — NumPy compute with autodiff (inputs are :class:`Tensor`);
* symbolic — kernel-record emission for the Section-VI FLOP analysis
  (inputs are :class:`ShapeProbe`).

Atrous convolution is just :class:`Conv2D` with ``dilation > 1``.
"""
from __future__ import annotations

import numpy as np

from collections import OrderedDict

from .. import init as initializers
from ..graph import ShapeProbe
from ..module import Module
from ..ops.conv import (
    conv2d_backward_input,
    conv2d_flops,
    conv_output_size,
    conv_transpose_output_size,
)
from ..ops.plan import ConvPlan, get_conv_plan
from ..parameter import Parameter
from ..tensor import Tensor, is_grad_enabled, split_ranks, stacked_ranks

__all__ = ["Conv2D", "ConvTranspose2D"]

#: Distinct input signatures a single layer keeps live plans for.  Layers
#: normally see one shape per phase (training grid, serving tile); a small
#: bound keeps pathological callers from hoarding workspaces.
_LAYER_PLAN_SLOTS = 4


def slot_for(slots: OrderedDict, key, make):
    """``slots[key]``, built by ``make()`` on a miss; the least recently
    used entry beyond :data:`_LAYER_PLAN_SLOTS` is dropped."""
    value = slots.get(key)
    if value is None:
        value = slots[key] = make()
        while len(slots) > _LAYER_PLAN_SLOTS:
            slots.popitem(last=False)
    else:
        slots.move_to_end(key)
    return value


def _add_bias(out: Tensor, bias: Parameter) -> Tensor:
    """``out`` plus a per-channel bias; inside a rank stack the bias
    gradient is one batch sum per rank."""
    ranks = stacked_ranks()

    def backward(g: np.ndarray) -> None:
        out.accumulate_grad(g)
        bias.accumulate_grad(split_ranks(g, ranks).sum(axis=(-4, -2, -1)))

    return Tensor.from_op(out.data + bias.data.reshape(1, -1, 1, 1),
                          (out, bias), backward, "bias_add")


def _same_padding(kernel: int, dilation: int) -> int:
    """The symmetric ``'same'`` pad that preserves H/stride."""
    if kernel % 2 == 0:
        raise ValueError("'same' padding requires an odd kernel size")
    return dilation * (kernel - 1) // 2


class Conv2D(Module):
    """2-D convolution (cross-correlation), NCHW.

    Parameters
    ----------
    in_channels, out_channels, kernel:
        Filter geometry; ``kernel`` is the (square) spatial size.
    stride, dilation:
        Standard conv hyper-parameters; ``dilation > 1`` gives atrous conv.
        Padding is always ``'same'`` (odd kernels only).
    bias:
        Whether to add a per-channel bias (disabled before batch norm).
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: int,
        stride: int = 1,
        dilation: int = 1,
        bias: bool = True,
        rng: np.random.Generator | None = None,
        name: str = "conv",
    ):
        super().__init__()
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel = int(kernel)
        self.stride = int(stride)
        self.dilation = int(dilation)
        self.padding = _same_padding(self.kernel, self.dilation)
        rng = rng or np.random.default_rng(0)
        wshape = (self.out_channels, self.in_channels, self.kernel, self.kernel)
        self.weight = Parameter(initializers.he_normal(rng, wshape), name=f"{name}.weight")
        self.bias = (
            Parameter(initializers.zeros((self.out_channels,)), name=f"{name}.bias")
            if bias
            else None
        )
        # Layer-owned execution plans (input signature -> ConvPlan).  Owning
        # them (rather than using the process-wide cache) guarantees the
        # column workspace filled by this layer's forward is still intact at
        # its weight gradient — other same-shape layers cannot clobber it.
        self._plans: OrderedDict[tuple, ConvPlan] = OrderedDict()

    def _plan_for(self, x) -> ConvPlan:
        return slot_for(self._plans, (x.shape, str(x.dtype)), lambda: ConvPlan(
            x.shape, self.weight.data.shape, self.stride, self.padding,
            self.dilation, x.dtype))

    # -- geometry ---------------------------------------------------------

    def output_hw(self, h: int, w: int) -> tuple[int, int]:
        return (
            conv_output_size(h, self.kernel, self.stride, self.padding, self.dilation),
            conv_output_size(w, self.kernel, self.stride, self.padding, self.dilation),
        )

    # -- forward ----------------------------------------------------------

    def forward(self, x):
        if isinstance(x, ShapeProbe):
            return self._trace(x)
        return self._eager(x)

    def _eager(self, x: Tensor) -> Tensor:
        w = self.weight
        plan = self._plan_for(x.data)
        if is_grad_enabled() and (x.requires_grad or w.requires_grad):
            out = self._taped(plan, x, w)
        else:
            # No backward will ask for the columns, so the plan is free to
            # pick whichever forward moves fewer bytes.
            out = Tensor(plan.forward_notape(x.data, w.data))
        if self.bias is not None:
            out = _add_bias(out, self.bias)
        return out

    def _taped(self, plan: ConvPlan, x: Tensor, w: Parameter) -> Tensor:
        token = plan.im2col(x.data)
        y = plan.forward_from_cols(plan.columns_for(token, x.data), w.data)
        x_data = x.data
        ranks = stacked_ranks()

        def backward(g: np.ndarray) -> None:
            if w.requires_grad:
                # The forward's column workspace (hence its padded input) is
                # reused here; the token only misses if this layer ran again
                # before backward, in which case columns_for refills safely.
                cols = plan.columns_for(token, x_data)
                w.accumulate_grad(plan.backward_weight_from_cols(
                    split_ranks(g, ranks), cols))
            if x.requires_grad:
                x.accumulate_grad(plan.backward_input(g, w.data))

        return Tensor.from_op(y, (x, w), backward, f"conv2d[{self.kernel}x{self.kernel}]")

    def _trace(self, x: ShapeProbe) -> ShapeProbe:
        tr = x.tracer
        n, c, h, w = x.shape
        if c != self.in_channels:
            raise ValueError(
                f"conv expects {self.in_channels} input channels, probe has {c}"
            )
        oh, ow = self.output_hw(h, w)
        k = self.kernel
        fwd_flops = conv2d_flops(n, c, self.out_channels, oh, ow, k, k)
        in_bytes = tr.tensor_bytes(x.shape)
        w_bytes = tr.tensor_bytes(self.weight.shape)
        out_shape = (n, self.out_channels, oh, ow)
        out_bytes = tr.tensor_bytes(out_shape)
        tr.emit(f"conv{k}x{k}_fwd", "conv_fwd", fwd_flops,
                in_bytes + w_bytes + out_bytes, algorithm="im2col_gemm")
        tr.note_activation(out_shape)
        if tr.precision.is_half:
            # FP32 master weights are cast to the FP16 working copy each step.
            tr.emit(
                f"conv{k}x{k}_weight_cast", "cast", self.weight.size,
                self.weight.size * (4 + 2),
            )
        if self.bias is not None:
            bias_elems = n * self.out_channels * oh * ow
            tr.emit("bias_add", "pointwise_fwd", bias_elems, 2 * out_bytes)
        if tr.include_backward:
            # dgrad reads dy + w, writes dx; wgrad reads dy + x, writes dw (FP32).
            tr.emit(f"conv{k}x{k}_dgrad", "conv_bwd", fwd_flops,
                    out_bytes + w_bytes + in_bytes, algorithm="im2col_gemm")
            tr.emit(f"conv{k}x{k}_wgrad", "conv_bwd", fwd_flops,
                    out_bytes + in_bytes + self.weight.size * 4,
                    algorithm="im2col_gemm")
            if self.bias is not None:
                bias_elems = n * self.out_channels * oh * ow
                tr.emit("bias_grad", "pointwise_bwd", bias_elems, out_bytes)
        return ShapeProbe(out_shape, tr)


class ConvTranspose2D(Module):
    """Transposed (fractionally strided) convolution — 'deconvolution'.

    Used by the paper's full-resolution DeepLabv3+ decoder (3x3 deconv /2
    stages in Figure 1) and by Tiramisu's transition-up path.  Implemented
    as the exact adjoint of :class:`Conv2D`: forward is the conv input
    gradient, so conv/deconv round-trips are numerically consistent.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: int,
        stride: int = 2,
        padding: int = 1,
        output_padding: int = 1,
        bias: bool = True,
        rng: np.random.Generator | None = None,
        name: str = "deconv",
    ):
        super().__init__()
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel = int(kernel)
        self.stride = int(stride)
        self.padding = int(padding)
        self.output_padding = int(output_padding)
        rng = rng or np.random.default_rng(0)
        # Weight layout (C_in, C_out, KH, KW): the conv this transposes maps
        # out_channels -> in_channels.
        wshape = (self.in_channels, self.out_channels, self.kernel, self.kernel)
        self.weight = Parameter(initializers.he_normal(rng, wshape), name=f"{name}.weight")
        self.bias = (
            Parameter(initializers.zeros((self.out_channels,)), name=f"{name}.bias")
            if bias
            else None
        )

    def output_hw(self, h: int, w: int) -> tuple[int, int]:
        return (
            conv_transpose_output_size(h, self.kernel, self.stride, self.padding,
                                       self.output_padding),
            conv_transpose_output_size(w, self.kernel, self.stride, self.padding,
                                       self.output_padding),
        )

    def forward(self, x):
        if isinstance(x, ShapeProbe):
            return self._trace(x)
        return self._eager(x)

    def _eager(self, x: Tensor) -> Tensor:
        w = self.weight
        n, c, h, wi = x.data.shape
        oh, ow = self.output_hw(h, wi)
        stride, pad = self.stride, self.padding
        out_shape = (n, self.out_channels, oh, ow)
        y = conv2d_backward_input(x.data, w.data, out_shape, stride, pad, 1)
        x_data = x.data
        ranks = stacked_ranks()

        def backward(g: np.ndarray) -> None:
            # dx is the conv of g and dw the conv wgrad with x as grad_out:
            # both read the columns of g, so fill them once for the two.
            plan = get_conv_plan(g.shape, w.data.shape, stride, pad, 1, g.dtype)
            token = plan.im2col(g)
            if x.requires_grad:
                x.accumulate_grad(
                    plan.forward_from_cols(plan.columns_for(token, g), w.data))
            if w.requires_grad:
                w.accumulate_grad(plan.backward_weight_from_cols(
                    split_ranks(x_data, ranks), plan.columns_for(token, g)))

        out = Tensor.from_op(y, (x, w), backward, f"deconv[{self.kernel}x{self.kernel}]")
        if self.bias is not None:
            out = _add_bias(out, self.bias)
        return out

    def _trace(self, x: ShapeProbe) -> ShapeProbe:
        tr = x.tracer
        n, c, h, w = x.shape
        if c != self.in_channels:
            raise ValueError(
                f"deconv expects {self.in_channels} input channels, probe has {c}"
            )
        oh, ow = self.output_hw(h, w)
        k = self.kernel
        # Work is proportional to the *input* (small) spatial extent times taps.
        flops = conv2d_flops(n, self.out_channels, c, h, w, k, k)
        in_bytes = tr.tensor_bytes(x.shape)
        w_bytes = tr.tensor_bytes(self.weight.shape)
        out_shape = (n, self.out_channels, oh, ow)
        out_bytes = tr.tensor_bytes(out_shape)
        tr.emit(f"deconv{k}x{k}_fwd", "conv_fwd", flops, in_bytes + w_bytes + out_bytes)
        tr.note_activation(out_shape)
        # TensorFlow inserts layout transposes around strided deconvolutions;
        # the paper's decoder re-layout removed ~10% of them, so we record the
        # copies explicitly to let the performance model account for them.
        tr.emit("deconv_layout_copy", "copy", 0, 2 * out_bytes)
        if tr.precision.is_half:
            tr.emit(f"deconv{k}x{k}_weight_cast", "cast", self.weight.size,
                    self.weight.size * (4 + 2))
        if self.bias is not None:
            tr.emit("bias_add", "pointwise_fwd", n * self.out_channels * oh * ow,
                    2 * out_bytes)
        if tr.include_backward:
            tr.emit(f"deconv{k}x{k}_dgrad", "conv_bwd", flops,
                    out_bytes + w_bytes + in_bytes)
            tr.emit(f"deconv{k}x{k}_wgrad", "conv_bwd", flops,
                    out_bytes + in_bytes + self.weight.size * 4)
            if self.bias is not None:
                tr.emit("bias_grad", "pointwise_bwd",
                        n * self.out_channels * oh * ow, out_bytes)
        return ShapeProbe(out_shape, tr)
