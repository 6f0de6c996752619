"""Shared building blocks for the segmentation networks."""
from __future__ import annotations

import numpy as np

from ...framework import functional as F
from ...framework.fusion import FusedConvBiasReLU, FusedPreActConv
from ...framework.layers import (
    Identity,
    BatchNorm2D,
    Conv2D,
    ConvTranspose2D,
    Dropout,
    MaxPool2D,
    Module,
    ReLU,
    Sequential,
)

__all__ = [
    "ConvBNReLU",
    "DenseLayer",
    "DenseBlock",
    "TransitionDown",
    "TransitionUp",
    "Bottleneck",
]


class ConvBNReLU(Module):
    """Conv -> BatchNorm -> ReLU, the workhorse composite."""

    def __init__(self, in_channels: int, out_channels: int, kernel: int,
                 dilation: int = 1,
                 rng: np.random.Generator | None = None, name: str = "cbr"):
        super().__init__()
        self.conv = Conv2D(in_channels, out_channels, kernel,
                           dilation=dilation, bias=False, rng=rng, name=f"{name}.conv")
        self.bn = BatchNorm2D(out_channels, name=f"{name}.bn")
        self.act = ReLU()
        self.out_channels = out_channels

    def forward(self, x):
        return self.act(self.bn(self.conv(x)))

    def fuse_inference(self) -> int:
        """Fold the BN into the conv; the ReLU rides the fused epilogue."""
        self.conv = FusedConvBiasReLU.from_conv_bn(self.conv, self.bn, relu=True)
        self.bn = Identity()
        self.act = Identity()
        return 1


class DenseLayer(Module):
    """One Tiramisu dense layer: BN -> ReLU -> Conv(k) -> Dropout.

    Produces ``growth`` new feature maps; the caller puts them on top of
    the running feature stack (DenseNet's concatenative skip, which the
    paper contrasts with ResNet's additive skip in Section III-A1).
    """

    def __init__(self, in_channels: int, growth: int, kernel: int = 3,
                 dropout: float = 0.2, rng: np.random.Generator | None = None,
                 name: str = "dense"):
        super().__init__()
        self.bn = BatchNorm2D(in_channels, name=f"{name}.bn")
        self.act = ReLU()
        self.conv = Conv2D(in_channels, growth, kernel, bias=False, rng=rng,
                           name=f"{name}.conv")
        self.drop = Dropout(dropout, rng=rng)
        self.growth = growth

    def forward(self, x):
        return self.drop(self.conv(self.act(self.bn(x))))

    def fuse_inference(self) -> int:
        """BN -> ReLU -> Conv become one fused pre-activation conv."""
        self.conv = FusedPreActConv.from_bn_conv(self.bn, self.conv)
        self.bn = Identity()
        self.act = Identity()
        return 1


class DenseBlock(Module):
    """A stack of dense layers with concatenative feed-forward.

    ``forward`` takes the block input, or the list of parts whose channel
    concatenation it is (the up path's upsampled maps and skip), and
    returns ``(stack, new_features)``: the full concatenation (input + all
    new maps) and the concatenation of only the new maps — Tiramisu's
    up-path feeds *only* the new maps into transition-up to bound channel
    growth.  Both are views of one
    :class:`~repro.framework.functional.FeatureStack` buffer, so no layer
    re-copies the stack below it.
    """

    def __init__(self, in_channels: int, num_layers: int, growth: int,
                 kernel: int = 3, dropout: float = 0.2,
                 rng: np.random.Generator | None = None, name: str = "dblock"):
        super().__init__()
        if num_layers < 1:
            raise ValueError("dense block needs >= 1 layer")
        self.layers_list = []
        ch = in_channels
        for i in range(num_layers):
            layer = DenseLayer(ch, growth, kernel, dropout, rng, name=f"{name}.l{i}")
            self.add_module(f"l{i}", layer)
            self.layers_list.append(layer)
            ch += growth
        self.in_channels = in_channels
        self.out_channels = ch                      # stack width
        self.new_channels = num_layers * growth     # new-features width

    def forward(self, x):
        parts = list(x) if isinstance(x, (list, tuple)) else [x]
        features = F.FeatureStack(parts, self.out_channels)
        for layer in self.layers_list:
            features.append(layer(features.stack))
        return features.stack, features.new()


class TransitionDown(Module):
    """Tiramisu down-transition: BN -> ReLU -> 1x1 conv -> dropout -> 2x2 maxpool."""

    def __init__(self, channels: int, dropout: float = 0.2,
                 rng: np.random.Generator | None = None, name: str = "td"):
        super().__init__()
        self.bn = BatchNorm2D(channels, name=f"{name}.bn")
        self.act = ReLU()
        self.conv = Conv2D(channels, channels, 1, bias=False, rng=rng, name=f"{name}.conv")
        self.drop = Dropout(dropout, rng=rng)
        self.pool = MaxPool2D(2, 2)

    def forward(self, x):
        return self.pool(self.drop(self.conv(self.act(self.bn(x)))))

    def fuse_inference(self) -> int:
        self.conv = FusedPreActConv.from_bn_conv(self.bn, self.conv)
        self.bn = Identity()
        self.act = Identity()
        return 1


class TransitionUp(Module):
    """Tiramisu up-transition: 3x3 deconv, stride 2 (exact 2x upsample)."""

    def __init__(self, in_channels: int, out_channels: int,
                 rng: np.random.Generator | None = None, name: str = "tu"):
        super().__init__()
        self.deconv = ConvTranspose2D(in_channels, out_channels, 3, stride=2,
                                      padding=1, output_padding=1, bias=False,
                                      rng=rng, name=f"{name}.deconv")

    def forward(self, x):
        return self.deconv(x)


class Bottleneck(Module):
    """ResNet-50 bottleneck: 1x1 -> 3x3 (stride/dilation) -> 1x1, additive skip.

    Strides and dilations follow the output-stride-8 configuration in the
    paper's Figure 1 (dilation 2 in stage 4, dilation 4 in stage 5).
    """

    EXPANSION = 4

    def __init__(self, in_channels: int, planes: int, stride: int = 1,
                 dilation: int = 1, rng: np.random.Generator | None = None,
                 name: str = "btl"):
        super().__init__()
        out_channels = planes * self.EXPANSION
        self.conv1 = Conv2D(in_channels, planes, 1, bias=False, rng=rng,
                            name=f"{name}.conv1")
        self.bn1 = BatchNorm2D(planes, name=f"{name}.bn1")
        self.conv2 = Conv2D(planes, planes, 3, stride=stride, dilation=dilation,
                            bias=False, rng=rng, name=f"{name}.conv2")
        self.bn2 = BatchNorm2D(planes, name=f"{name}.bn2")
        self.conv3 = Conv2D(planes, out_channels, 1, bias=False, rng=rng,
                            name=f"{name}.conv3")
        self.bn3 = BatchNorm2D(out_channels, name=f"{name}.bn3")
        self.act = ReLU()
        if stride != 1 or in_channels != out_channels:
            self.proj_conv = Conv2D(in_channels, out_channels, 1, stride=stride,
                                    bias=False, rng=rng, name=f"{name}.proj")
            self.proj_bn = BatchNorm2D(out_channels, name=f"{name}.proj_bn")
        else:
            self.proj_conv = None
            self.proj_bn = None
        self.out_channels = out_channels

    def forward(self, x):
        out = self.act(self.bn1(self.conv1(x)))
        out = self.act(self.bn2(self.conv2(out)))
        out = self.bn3(self.conv3(out))
        if self.proj_conv is not None:
            shortcut = self.proj_bn(self.proj_conv(x))
        else:
            shortcut = x
        return F.relu(F.add(out, shortcut))

    def fuse_inference(self) -> int:
        """Fold every conv -> BN pair; branch-tail convs keep relu=False
        because the ReLU lands after the residual add."""
        self.conv1 = FusedConvBiasReLU.from_conv_bn(self.conv1, self.bn1, relu=True)
        self.conv2 = FusedConvBiasReLU.from_conv_bn(self.conv2, self.bn2, relu=True)
        self.conv3 = FusedConvBiasReLU.from_conv_bn(self.conv3, self.bn3, relu=False)
        self.bn1 = Identity()
        self.bn2 = Identity()
        self.bn3 = Identity()
        self.act = Identity()
        fused = 3
        if self.proj_conv is not None:
            self.proj_conv = FusedConvBiasReLU.from_conv_bn(
                self.proj_conv, self.proj_bn, relu=False)
            self.proj_bn = Identity()
            fused += 1
        return fused
