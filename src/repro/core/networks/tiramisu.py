"""Tiramisu (FC-DenseNet) segmentation network, original and modified.

The paper's evolution (Section V-B5): the initial design followed the
Tiramisu authors' advice — many layers, small growth rate (16), 3x3
convolutions.  Profiling on Pascal/Volta showed a growth rate of 32 to be
far more GPU-efficient, so the final network **doubles the growth rate to
32, halves the layer count per dense block, and widens the convolutions to
5x5** to keep the receptive field; it trained faster *and* reached a better
model.

Five dense blocks in each direction with (2, 2, 2, 4, 5) layers
(top to bottom) in the modified network, per Section III-A1.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...framework.layers import Conv2D, Module
from .blocks import DenseBlock, TransitionDown, TransitionUp

__all__ = ["TiramisuConfig", "Tiramisu", "tiramisu_modified", "tiramisu_original"]


@dataclass(frozen=True)
class TiramisuConfig:
    """Architecture hyper-parameters."""

    in_channels: int = 16
    num_classes: int = 3
    base_filters: int = 48
    growth: int = 32
    down_layers: tuple[int, ...] = (2, 2, 2, 4, 5)
    bottleneck_layers: int = 5
    kernel: int = 5
    dropout: float = 0.2

    def __post_init__(self):
        if len(self.down_layers) < 1:
            raise ValueError("need at least one dense block")
        if self.kernel % 2 == 0:
            raise ValueError("kernel must be odd ('same' padding)")

    @property
    def depth_divisor(self) -> int:
        """Input dims must be divisible by this (one 2x pool per block)."""
        return 2 ** len(self.down_layers)


class Tiramisu(Module):
    """FC-DenseNet with concatenative skips spanning the down and up paths."""

    def __init__(self, config: TiramisuConfig | None = None,
                 rng: np.random.Generator | None = None):
        super().__init__()
        cfg = config or TiramisuConfig()
        self.config = cfg
        rng = rng or np.random.default_rng(0)

        self.stem = Conv2D(cfg.in_channels, cfg.base_filters, cfg.kernel,
                           bias=False, rng=rng, name="stem")
        ch = cfg.base_filters
        self.down_blocks = []
        self.down_transitions = []
        self.skip_channels = []
        for i, n_layers in enumerate(cfg.down_layers):
            block = DenseBlock(ch, n_layers, cfg.growth, cfg.kernel, cfg.dropout,
                               rng, name=f"down{i}")
            self.add_module(f"down{i}", block)
            self.down_blocks.append(block)
            ch = block.out_channels
            self.skip_channels.append(ch)
            td = TransitionDown(ch, cfg.dropout, rng, name=f"td{i}")
            self.add_module(f"td{i}", td)
            self.down_transitions.append(td)

        self.bottleneck = DenseBlock(ch, cfg.bottleneck_layers, cfg.growth,
                                     cfg.kernel, cfg.dropout, rng, name="bottleneck")
        up_in = self.bottleneck.new_channels

        self.up_transitions = []
        self.up_blocks = []
        for i, n_layers in enumerate(reversed(cfg.down_layers)):
            skip_ch = self.skip_channels[-(i + 1)]
            tu = TransitionUp(up_in, up_in, rng, name=f"tu{i}")
            self.add_module(f"tu{i}", tu)
            self.up_transitions.append(tu)
            block = DenseBlock(up_in + skip_ch, n_layers, cfg.growth, cfg.kernel,
                               cfg.dropout, rng, name=f"up{i}")
            self.add_module(f"up{i}", block)
            self.up_blocks.append(block)
            up_in = block.new_channels

        # Final classifier sees the last full stack (input + new maps).
        self.classifier = Conv2D(self.up_blocks[-1].out_channels, cfg.num_classes,
                                 1, bias=True, rng=rng, name="classifier")

    def forward(self, x):
        """(N, C, H, W) -> (N, num_classes, H, W) logits.

        H and W must be divisible by ``config.depth_divisor``.
        """
        h, w = x.shape[2], x.shape[3]
        div = self.config.depth_divisor
        if h % div or w % div:
            raise ValueError(f"input {h}x{w} not divisible by {div}")
        out = self.stem(x)
        skips = []
        for block, td in zip(self.down_blocks, self.down_transitions):
            stack, _ = block(out)
            skips.append(stack)
            out = td(stack)
        _, out = self.bottleneck(out)
        for tu, block, skip in zip(self.up_transitions, self.up_blocks,
                                   reversed(skips)):
            stack, new = block([tu(out), skip])
            out = new if block is not self.up_blocks[-1] else stack
        return self.classifier(out)


def tiramisu_modified(in_channels: int = 16) -> Tiramisu:
    """The paper's final Tiramisu: growth 32, halved blocks, 5x5 convs."""
    return Tiramisu(TiramisuConfig(in_channels=in_channels,
                                   growth=32, down_layers=(2, 2, 2, 4, 5),
                                   bottleneck_layers=5, kernel=5))


def tiramisu_original() -> Tiramisu:
    """The initial design: growth 16, double-depth blocks, 3x3 convs."""
    return Tiramisu(TiramisuConfig(growth=16, down_layers=(4, 4, 4, 8, 10),
                                   bottleneck_layers=10, kernel=3))
