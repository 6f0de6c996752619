"""Bilinear upsampling layer (the stock DeepLabv3+ decoder's resize)."""
from __future__ import annotations

import numpy as np

from ..graph import ShapeProbe
from ..module import Module
from ..ops.shape import bilinear_upsample_backward, bilinear_upsample_forward
from ..tensor import Tensor

__all__ = ["BilinearUpsample2D"]


class BilinearUpsample2D(Module):
    """Resize spatial dims by an integer ``scale`` with bilinear blending.

    The paper's modified decoder replaces this with learned deconvolutions;
    keeping it lets us build the *stock* quarter-resolution DeepLabv3+ as an
    ablation baseline.
    """

    def __init__(self, scale: int = 2):
        super().__init__()
        if scale < 1:
            raise ValueError(f"scale must be >= 1, got {scale}")
        self.scale = int(scale)

    def output_hw(self, h: int, w: int) -> tuple[int, int]:
        return h * self.scale, w * self.scale

    def forward(self, x):
        if isinstance(x, ShapeProbe):
            tr = x.tracer
            n, c, h, w = x.shape
            oh, ow = self.output_hw(h, w)
            out_shape = (n, c, oh, ow)
            flops = 8 * n * c * oh * ow  # 4 taps, lerp in 2 dims
            tr.emit("bilinear_fwd", "pointwise_fwd", flops,
                    tr.tensor_bytes(x.shape) + tr.tensor_bytes(out_shape))
            tr.note_activation(out_shape)
            if tr.include_backward:
                tr.emit("bilinear_bwd", "pointwise_bwd", flops,
                        tr.tensor_bytes(x.shape) + tr.tensor_bytes(out_shape))
            return ShapeProbe(out_shape, tr)
        n, c, h, w = x.data.shape
        oh, ow = self.output_hw(h, w)
        y = bilinear_upsample_forward(x.data, oh, ow)
        x_shape = x.data.shape

        def backward(g: np.ndarray) -> None:
            x.accumulate_grad(bilinear_upsample_backward(g, x_shape))

        return Tensor.from_op(y, (x,), backward, f"bilinear[x{self.scale}]")
