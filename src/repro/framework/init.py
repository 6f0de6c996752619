"""Weight initializers (He normal, the segmentation nets' default).

Inside :func:`shape_only` every initializer returns a read-only stride-0
placeholder of the requested shape and dtype and leaves the RNG untouched:
the Section-VI cost models only *traverse* a paper-size network, so they
build it there and never draw its ~40 M weights.  Outside the scope each
initializer returns exactly what it always did.
"""
from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np

__all__ = ["he_normal", "zeros", "ones", "shape_only", "in_shape_only_scope"]

# Context-local, so a thread started inside the scope (a prefetch worker,
# say) still initializes real weights, and nested scopes unwind correctly.
_SHAPE_ONLY: ContextVar[bool] = ContextVar("repro_shape_only_init", default=False)


@contextmanager
def shape_only():
    """Build modules whose parameters have shapes but no storage.

    Such a module can be traced (``Module.analyze``) and counted
    (``num_parameters``); updating or saving it raises
    :class:`~repro.errors.ReproError`.
    """
    token = _SHAPE_ONLY.set(True)
    try:
        yield
    finally:
        _SHAPE_ONLY.reset(token)


def in_shape_only_scope() -> bool:
    return _SHAPE_ONLY.get()


def _placeholder(shape: tuple[int, ...], dtype, fill: float = 0.0) -> np.ndarray:
    return np.broadcast_to(np.asarray(fill, dtype=dtype), shape)


def _fan_in(shape: tuple[int, ...]) -> int:
    """Fan-in for dense (out,in) or conv (F,C,KH,KW) weight shapes."""
    if len(shape) == 2:
        return shape[1]
    if len(shape) == 4:
        _, c, kh, kw = shape
        return c * kh * kw
    raise ValueError(f"unsupported weight shape {shape}")


def he_normal(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """He/Kaiming normal FP32 weights: std = sqrt(2/fan_in); the
    ReLU-network default."""
    fan_in = _fan_in(shape)
    if _SHAPE_ONLY.get():
        return _placeholder(shape, np.float32)
    std = np.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, size=shape).astype(np.float32)


def zeros(shape: tuple[int, ...], dtype=np.float32) -> np.ndarray:
    if _SHAPE_ONLY.get():
        return _placeholder(shape, dtype)
    return np.zeros(shape, dtype=dtype)


def ones(shape: tuple[int, ...], dtype=np.float32) -> np.ndarray:
    if _SHAPE_ONLY.get():
        return _placeholder(shape, dtype, 1.0)
    return np.ones(shape, dtype=dtype)
