"""DeepLabv3+ with the paper's full-resolution deconvolutional decoder.

Stock DeepLabv3+ decodes at one-quarter resolution to keep compute
tractable; the paper replaces the decoder with learned 3x3/2
deconvolutions all the way back to the native 1152x768 grid because "the
irregular and fine-scale nature of our segmentation labels requires
operating at the native resolution" (Section V-B5).  The decoder here is
the paper's (Figure 1): deconv to 1/4, fuse the 48-channel low-level skip,
two 3x3x256 convs, deconv to 1/2, one 3x3x256 conv, deconv to 1/1, 3x3
convs at 256/256/128/64, final 1x1 to the classes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...framework import functional as F
from ...framework.layers import Conv2D, ConvTranspose2D, Module
from .aspp import ASPP
from .blocks import ConvBNReLU
from .resnet import ResNetConfig, ResNetEncoder

__all__ = ["DeepLabConfig", "DeepLabV3Plus", "deeplab_modified"]


@dataclass(frozen=True)
class DeepLabConfig:
    """Architecture hyper-parameters; ``width`` scales the whole network."""

    in_channels: int = 16
    num_classes: int = 3
    aspp_dilations: tuple[int, ...] = (12, 24, 36)
    width: float = 1.0

    def scaled(self, channels: int) -> int:
        return max(int(round(channels * self.width)), 4)


class DeepLabV3Plus(Module):
    """Encoder (ResNet-50, OS8) + ASPP + decoder."""

    def __init__(self, config: DeepLabConfig | None = None,
                 rng: np.random.Generator | None = None):
        super().__init__()
        cfg = config or DeepLabConfig()
        self.config = cfg
        rng = rng or np.random.default_rng(0)
        self.encoder = ResNetEncoder(
            ResNetConfig(in_channels=cfg.in_channels, width=cfg.width), rng=rng
        )
        c256 = cfg.scaled(256)
        self.aspp = ASPP(self.encoder.out_channels, c256,
                         dilations=cfg.aspp_dilations, rng=rng)
        c48 = cfg.scaled(48)
        self.skip_proj = ConvBNReLU(self.encoder.low_level_channels, c48, 1,
                                    rng=rng, name="skip_proj")
        self.up8to4 = ConvTranspose2D(c256, c256, 3, stride=2, padding=1,
                                      output_padding=1, bias=False, rng=rng,
                                      name="up8to4")
        self.fuse1 = ConvBNReLU(c256 + c48, c256, 3, rng=rng, name="fuse1")
        self.fuse2 = ConvBNReLU(c256, c256, 3, rng=rng, name="fuse2")
        self.up4to2 = ConvTranspose2D(c256, c256, 3, stride=2, padding=1,
                                      output_padding=1, bias=False, rng=rng,
                                      name="up4to2")
        self.refine2 = ConvBNReLU(c256, c256, 3, rng=rng, name="refine2")
        self.up2to1 = ConvTranspose2D(c256, c256, 3, stride=2, padding=1,
                                      output_padding=1, bias=False, rng=rng,
                                      name="up2to1")
        # Figure 1 keeps two 256-wide 3x3 convs at the native resolution
        # before narrowing — the dominant cost of the full-res decoder.
        self.refine1a = ConvBNReLU(c256, c256, 3, rng=rng, name="refine1a")
        self.refine1b = ConvBNReLU(c256, c256, 3, rng=rng, name="refine1b")
        self.narrow1 = ConvBNReLU(c256, cfg.scaled(128), 3, rng=rng,
                                  name="narrow1")
        self.narrow2 = ConvBNReLU(cfg.scaled(128), cfg.scaled(64), 3, rng=rng,
                                  name="narrow2")
        self.classifier = Conv2D(cfg.scaled(64), cfg.num_classes, 1, rng=rng,
                                 name="classifier")

    def forward(self, x):
        """(N, C, H, W) -> (N, num_classes, H, W) full-resolution logits."""
        feats, low_level = self.encoder(x)
        feats = self.aspp(feats)
        skip = self.skip_proj(low_level)
        out = self.up8to4(feats)
        out = F.concat([out, skip], axis=1)
        out = self.fuse2(self.fuse1(out))
        out = self.refine2(self.up4to2(out))
        out = self.refine1b(self.refine1a(self.up2to1(out)))
        out = self.narrow2(self.narrow1(out))
        return self.classifier(out)


def deeplab_modified(in_channels: int = 16) -> DeepLabV3Plus:
    """The paper's network: full-resolution deconvolutional decoder."""
    return DeepLabV3Plus(DeepLabConfig(in_channels=in_channels))
