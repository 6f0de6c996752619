"""Max pooling layer."""
from __future__ import annotations

import numpy as np

from ..graph import ShapeProbe
from ..module import Module
from ..ops.conv import conv_output_size
from ..ops.pool import maxpool2d_backward, maxpool2d_forward, maxpool2d_forward_notape
from ..tensor import Tensor, is_grad_enabled

__all__ = ["MaxPool2D"]


class MaxPool2D(Module):
    """Max pool; the ResNet stem uses 3x3/2, Tiramisu transitions use 2x2/2."""

    def __init__(self, kernel: int, stride: int | None = None, padding: int = 0):
        super().__init__()
        self.kernel = int(kernel)
        self.stride = int(stride) if stride is not None else int(kernel)
        self.padding = int(padding)

    def output_hw(self, h: int, w: int) -> tuple[int, int]:
        return (
            conv_output_size(h, self.kernel, self.stride, self.padding, 1),
            conv_output_size(w, self.kernel, self.stride, self.padding, 1),
        )

    def _trace(self, x: ShapeProbe) -> ShapeProbe:
        tr = x.tracer
        n, c, h, w = x.shape
        oh, ow = self.output_hw(h, w)
        out_shape = (n, c, oh, ow)
        window = self.kernel * self.kernel
        flops = n * c * oh * ow * window
        nbytes = tr.tensor_bytes(x.shape) + tr.tensor_bytes(out_shape)
        tr.emit("maxpool2d_fwd", "pointwise_fwd", flops, nbytes)
        tr.note_activation(out_shape)
        if tr.include_backward:
            tr.emit("maxpool2d_bwd", "pointwise_bwd", flops, nbytes)
        return ShapeProbe(out_shape, tr)

    def forward(self, x):
        if isinstance(x, ShapeProbe):
            return self._trace(x)
        k, s, p = self.kernel, self.stride, self.padding
        if not (is_grad_enabled() and x.requires_grad):
            # Nothing will route a gradient: skip the argmax bookkeeping.
            return Tensor(maxpool2d_forward_notape(x.data, k, s, p))
        y, arg = maxpool2d_forward(x.data, k, s, p)
        x_shape = x.data.shape

        def backward(g: np.ndarray) -> None:
            x.accumulate_grad(maxpool2d_backward(g, arg, x_shape, k, s, p))

        return Tensor.from_op(y, (x,), backward, f"maxpool[{k}/{s}]")

