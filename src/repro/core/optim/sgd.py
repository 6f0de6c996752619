"""Stochastic gradient descent with optional momentum and weight decay."""
from __future__ import annotations

from typing import Iterable

import numpy as np

from ...framework.parameter import Parameter
from .base import Optimizer

__all__ = ["SGD"]


class SGD(Optimizer):
    """Classic (heavy-ball) momentum SGD.

    ``v <- m v + g + wd w``;  ``w <- w - lr v``.
    """

    def __init__(self, params: Iterable[Parameter], lr: float,
                 momentum: float = 0.0, weight_decay: float = 0.0):
        super().__init__(params, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self._velocity: dict[int, np.ndarray] = {}

    def _effective_grad(self, param: Parameter, grad: np.ndarray) -> np.ndarray:
        """``g + wd w``, in the scratch buffer when there is decay to add
        (``grad`` itself otherwise; it is never written)."""
        if self.weight_decay:
            out = self._scratch(grad)
            np.multiply(param.master_value().astype(np.float32, copy=False),
                        self.weight_decay, out=out)
            return np.add(grad, out, out=out)
        return grad

    def _momentum(self, param: Parameter, grad: np.ndarray) -> np.ndarray:
        """``v <- m v + g`` in place in the velocity buffer; returns ``v``."""
        v = self._velocity.get(id(param))
        if v is None:
            v = self._velocity[id(param)] = grad.copy()
        else:
            v *= self.momentum
            v += grad
        return v

    def _delta(self, param: Parameter, grad: np.ndarray) -> np.ndarray:
        grad = self._effective_grad(param, grad)
        if self.momentum:
            grad = self._momentum(param, grad)
        return np.multiply(grad, -self.lr, out=self._scratch(grad))
