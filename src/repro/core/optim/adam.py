"""ADAM (adaptive moment estimation) — the Tiramisu training optimizer
named in Section III-A1."""
from __future__ import annotations

from typing import Iterable

import numpy as np

from ...framework.parameter import Parameter
from .base import Optimizer

__all__ = ["Adam"]

#: Kingma & Ba's moment decay rates and denominator epsilon.
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam(Optimizer):
    """Kingma & Ba (2014) with bias correction."""

    def __init__(self, params: Iterable[Parameter], lr: float = 1e-3,
                 weight_decay: float = 0.0):
        super().__init__(params, lr)
        self.weight_decay = float(weight_decay)
        self._m: dict[int, np.ndarray] = {}
        self._v: dict[int, np.ndarray] = {}
        self._t: dict[int, int] = {}

    def _delta(self, param: Parameter, grad: np.ndarray) -> np.ndarray:
        if self.weight_decay:
            grad = grad + self.weight_decay * param.master_value().astype(np.float32)
        key = id(param)
        t = self._t.get(key, 0) + 1
        self._t[key] = t
        m = self._m.get(key, np.zeros_like(grad))
        v = self._v.get(key, np.zeros_like(grad))
        m = BETA1 * m + (1 - BETA1) * grad
        v = BETA2 * v + (1 - BETA2) * grad * grad
        self._m[key], self._v[key] = m, v
        mhat = m / (1 - BETA1**t)
        vhat = v / (1 - BETA2**t)
        return -self.lr * mhat / (np.sqrt(vhat) + EPS)
