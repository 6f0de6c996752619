"""Optimizer base class working on framework Parameters."""
from __future__ import annotations

from typing import Iterable

import numpy as np

from ...framework.parameter import Parameter

__all__ = ["Optimizer"]


class Optimizer:
    """Base: subclasses implement ``_delta(param, grad) -> update``.

    Gradients are read from ``param.grad`` (populated by ``backward`` and,
    in distributed training, replaced by the all-reduced average before
    ``step``).  Updates are applied through ``Parameter.apply_update`` so
    FP32 master weights are handled transparently.  ``step`` applies each
    ``_delta`` before computing the next, so a ``_delta`` may return a view
    of the optimizer's one scratch buffer (:meth:`_scratch`).
    """

    def __init__(self, params: Iterable[Parameter], lr: float):
        self.params = list(params)
        if not self.params:
            raise ValueError("optimizer needs at least one parameter")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = float(lr)
        self.steps = 0
        self._scratch_buf: np.ndarray | None = None

    def _scratch(self, like: np.ndarray) -> np.ndarray:
        """An FP32 work array shaped like ``like``: a view of one buffer
        sized to the largest parameter, overwritten by the next call."""
        buf = self._scratch_buf
        if buf is None or buf.size < like.size:
            buf = np.empty(max(like.size, max(p.size for p in self.params)),
                           dtype=np.float32)
            self._scratch_buf = buf
        return buf[:like.size].reshape(like.shape)

    def _delta(self, param: Parameter, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def step(self) -> None:
        """Apply one update from the currently stored gradients."""
        self.steps += 1
        for p in self.params:
            if p.grad is None:
                continue
            grad = np.asarray(p.grad, dtype=np.float32)
            p.apply_update(self._delta(p, grad))

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def set_lr(self, lr: float) -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = float(lr)

    def gradients(self) -> dict[str, np.ndarray]:
        """Named gradient dict (what Horovod all-reduces)."""
        return {p.name: p.grad for p in self.params if p.grad is not None}

    def load_gradients(self, grads: dict[str, np.ndarray]) -> None:
        """Replace stored gradients (after an all-reduce)."""
        for p in self.params:
            if p.name in grads:
                p.grad = np.asarray(grads[p.name])
