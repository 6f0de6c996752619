"""ResNet-50 encoder with atrous (output-stride-8) stages.

Matches the paper's Figure 1 encoder: a 7x7/2 stem + 3x3/2 max pool, then
four bottleneck stages of depth (3, 4, 6, 3).  To keep spatial detail for
segmentation, stages 3 and 4 trade their strides for dilations 2 and 4,
leaving the encoder output at 1/8 resolution (144 x 96 for 1152 x 768
input) instead of ResNet's usual 1/32.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...framework.layers import BatchNorm2D, Conv2D, MaxPool2D, Module, ReLU
from .blocks import Bottleneck

__all__ = ["ResNetConfig", "ResNetEncoder"]

BLOCKS = (3, 4, 6, 3)       # bottlenecks per stage: ResNet-50


@dataclass(frozen=True)
class ResNetConfig:
    """Encoder hyper-parameters; ``width`` scales all channel counts."""

    in_channels: int = 16
    width: float = 1.0

    def scaled(self, channels: int) -> int:
        return max(int(round(channels * self.width)), 4)


class ResNetEncoder(Module):
    """Output-stride-8 ResNet-50 trunk.

    ``forward`` returns ``(features, low_level)``: the 1/8-resolution deep
    features (2048 channels at width 1) and the 1/4-resolution stage-1
    output (256 channels) used by the decoder skip.
    """

    def __init__(self, config: ResNetConfig | None = None,
                 rng: np.random.Generator | None = None):
        super().__init__()
        cfg = config or ResNetConfig()
        self.config = cfg
        rng = rng or np.random.default_rng(0)
        stem_ch = cfg.scaled(64)
        self.stem_conv = Conv2D(cfg.in_channels, stem_ch, 7, stride=2,
                                bias=False, rng=rng, name="stem")
        self.stem_bn = BatchNorm2D(stem_ch, name="stem_bn")
        self.act = ReLU()
        self.pool = MaxPool2D(3, 2, padding=1)

        # (planes, stride, dilation) per stage; strides->dilations for OS8.
        stage_specs = [
            (cfg.scaled(64), 1, 1),
            (cfg.scaled(128), 2, 1),
            (cfg.scaled(256), 1, 2),
            (cfg.scaled(512), 1, 4),
        ]
        ch = stem_ch
        self.stages: list[list[Bottleneck]] = []
        for s, ((planes, stride, dilation), depth) in enumerate(
            zip(stage_specs, BLOCKS)
        ):
            stage = []
            for b in range(depth):
                block = Bottleneck(ch, planes, stride=stride if b == 0 else 1,
                                   dilation=dilation, rng=rng,
                                   name=f"stage{s}.b{b}")
                self.add_module(f"stage{s}_b{b}", block)
                stage.append(block)
                ch = block.out_channels
            self.stages.append(stage)
        self.out_channels = ch                                  # 2048 * width
        self.low_level_channels = self.stages[0][-1].out_channels  # 256 * width

    def forward(self, x):
        h, w = x.shape[2], x.shape[3]
        if h % 8 or w % 8:
            raise ValueError(f"input {h}x{w} must be divisible by 8 (output stride)")
        out = self.pool(self.act(self.stem_bn(self.stem_conv(x))))
        low_level = None
        for s, stage in enumerate(self.stages):
            for block in stage:
                out = block(out)
            if s == 0:
                low_level = out
        return out, low_level
