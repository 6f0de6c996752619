"""Layer library used by the segmentation networks."""
from ..module import Identity, Module, Sequential
from .activation import ReLU
from .conv import Conv2D, ConvTranspose2D
from .dropout import Dropout
from .norm import BatchNorm2D
from .pool import MaxPool2D

__all__ = [
    "Module",
    "Sequential",
    "Identity",
    "Conv2D",
    "ConvTranspose2D",
    "BatchNorm2D",
    "ReLU",
    "MaxPool2D",
    "Dropout",
]
