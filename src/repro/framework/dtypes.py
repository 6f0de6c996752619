"""Dtype policy for mixed-precision emulation.

The paper trains in FP32 and in mixed precision (FP16 storage/compute with
FP32 master weights, exploiting V100 Tensor Cores).  On the NumPy substrate we
emulate the numerics of both modes: ``float16`` really is IEEE half precision,
so overflow/rounding pathologies the paper reports (e.g. inverse-frequency
loss weights destabilizing FP16 training, Section V-B1) reproduce faithfully.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "FP16",
    "FP32",
    "FP64",
    "Precision",
    "bytes_per_element",
]

FP16 = np.dtype(np.float16)
FP32 = np.dtype(np.float32)
FP64 = np.dtype(np.float64)

_VALID = {"fp16", "fp32", "fp64"}

_BYTES = {"fp16": 2, "fp32": 4, "fp64": 8}


class Precision:
    """A named precision mode (``"fp16"``, ``"fp32"`` or ``"fp64"``).

    ``fp16`` mode matches the paper's mixed-precision configuration: tensors
    are stored in half precision, while accumulations inside matmul/conv
    kernels happen in FP32 (as on Tensor Cores) before being rounded back.
    """

    __slots__ = ("name",)

    def __init__(self, name: str):
        if name not in _VALID:
            raise ValueError(f"unknown precision {name!r}; expected one of {sorted(_VALID)}")
        self.name = name

    @property
    def itemsize(self) -> int:
        return _BYTES[self.name]

    @property
    def is_half(self) -> bool:
        return self.name == "fp16"

    def __eq__(self, other) -> bool:
        if isinstance(other, Precision):
            return self.name == other.name
        if isinstance(other, str):
            return self.name == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.name)

    def __repr__(self) -> str:
        return f"Precision({self.name!r})"


def bytes_per_element(precision: str | Precision) -> int:
    """Storage bytes per element in the given precision."""
    name = precision.name if isinstance(precision, Precision) else precision
    if name not in _BYTES:
        raise ValueError(f"unknown precision {name!r}")
    return _BYTES[name]

