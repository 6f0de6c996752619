"""A minimal NumPy deep-learning framework (the TensorFlow stand-in).

Provides tensors with reverse-mode autodiff, the layer zoo the segmentation
networks need (conv / atrous conv / deconv / batch norm / pooling / dropout),
mixed-precision emulation, and symbolic graph tracing for the paper's
FLOP-counting methodology.
"""
from . import functional, init, layers, ops
from . import fusion
from .dtypes import Precision
from .fusion import FusedConvBiasReLU, FusedScaleShiftReLU, fold_bn_into_conv, freeze
from .graph import CATEGORIES, GraphAnalysis, GraphTracer, KernelRecord, ShapeProbe
from .losses import weighted_cross_entropy
from .module import Identity, Module, Sequential
from .parameter import Parameter
from .precision import LossScaler, apply_fp16_policy
from .tensor import Tensor, concatenate, no_grad

__all__ = [
    "Tensor",
    "Parameter",
    "Module",
    "Sequential",
    "Identity",
    "Precision",
    "GraphTracer",
    "GraphAnalysis",
    "KernelRecord",
    "ShapeProbe",
    "CATEGORIES",
    "LossScaler",
    "apply_fp16_policy",
    "weighted_cross_entropy",
    "concatenate",
    "no_grad",
    "fusion",
    "freeze",
    "fold_bn_into_conv",
    "FusedConvBiasReLU",
    "FusedScaleShiftReLU",
    "functional",
    "layers",
    "ops",
    "init",
]
