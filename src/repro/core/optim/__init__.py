"""Optimizers: SGD/Adam plus the paper's large-batch machinery."""
from . import schedules
from .adam import Adam
from .base import Optimizer
from .lag import GradientLag
from .larc import LARC, LARS
from .sgd import SGD

__all__ = ["Optimizer", "SGD", "Adam", "LARS", "LARC", "GradientLag",
           "schedules"]
