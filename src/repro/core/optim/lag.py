"""Gradient lag: update weights with the *previous* step's gradients.

Section V-B4: the top layer's gradient all-reduce is a sequential
bottleneck; using lag-1 gradients lets every all-reduce overlap with the
next step's compute and lets Horovod batch tensors more aggressively.  The
paper found lag-1 training curves "nearly identical" to lag-0 (Figure 6).

``GradientLag`` wraps any optimizer: ``step`` buffers the fresh gradients
and applies the ones from ``lag`` steps ago (the first ``lag`` calls apply
nothing, mirroring a pipeline fill).  EASGD (Zhang et al., cited in the
paper) generalizes to larger effective lags via an elastic center; it is
related work only and is not reproduced here.
"""
from __future__ import annotations

from collections import deque

import numpy as np

from .base import Optimizer

__all__ = ["GradientLag"]


class GradientLag:
    """Delay-line wrapper around an optimizer."""

    def __init__(self, inner: Optimizer, lag: int = 1):
        if lag < 0:
            raise ValueError("lag must be >= 0")
        self.inner = inner
        self.lag = int(lag)
        self._queue: deque[dict[str, np.ndarray]] = deque()
        self.steps = 0

    @property
    def params(self):
        return self.inner.params

    @property
    def lr(self) -> float:
        return self.inner.lr

    def set_lr(self, lr: float) -> None:
        self.inner.set_lr(lr)

    def step(self) -> None:
        """Buffer current grads; apply the grads from ``lag`` steps ago."""
        self.steps += 1
        if self.lag == 0:
            self.inner.step()
            return
        current = {
            p.name: np.asarray(p.grad, dtype=np.float32).copy()
            for p in self.inner.params
            if p.grad is not None
        }
        self._queue.append(current)
        if len(self._queue) > self.lag:
            delayed = self._queue.popleft()
            self.inner.load_gradients(delayed)
            self.inner.step()

    def zero_grad(self) -> None:
        self.inner.zero_grad()

    def gradients(self):
        return self.inner.gradients()

    def load_gradients(self, grads) -> None:
        self.inner.load_gradients(grads)

    def flush(self) -> None:
        """Drain the delay line (apply all buffered gradients)."""
        while self._queue:
            delayed = self._queue.popleft()
            self.inner.load_gradients(delayed)
            self.inner.step()
