"""Segmentation network zoo: Tiramisu and DeepLabv3+ variants."""
from .aspp import ASPP
from .blocks import Bottleneck, ConvBNReLU, DenseBlock, DenseLayer, TransitionDown, TransitionUp
from .deeplab import DeepLabConfig, DeepLabV3Plus, deeplab_modified
from .resnet import ResNetConfig, ResNetEncoder
from .tiramisu import Tiramisu, TiramisuConfig, tiramisu_modified, tiramisu_original

__all__ = [
    "Tiramisu",
    "TiramisuConfig",
    "tiramisu_modified",
    "tiramisu_original",
    "DeepLabV3Plus",
    "DeepLabConfig",
    "deeplab_modified",
    "ResNetEncoder",
    "ResNetConfig",
    "ASPP",
    "ConvBNReLU",
    "DenseLayer",
    "DenseBlock",
    "TransitionDown",
    "TransitionUp",
    "Bottleneck",
]
