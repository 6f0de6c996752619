"""LARS and LARC: layer-wise adaptive learning rates for large batches.

Section V-B2: LARC "controls the magnitude of weight updates by keeping
them small compared to the norm of layer's weights", using one adaptive
rate per layer.  Compared with LARS it *clips* the local rate at the global
schedule instead of scaling by it, removing the need for elaborate warm-up
— which is why the paper standardizes on LARC.

Local rate for layer w with gradient g:

    lr_local = trust * ||w|| / (||g|| + wd * ||w|| + eps)

* LARS (You et al. 2017): effective rate = lr_global * lr_local (scale mode);
* LARC (Ginsburg et al.):  effective rate = min(lr_local, lr_global) (clip).
"""
from __future__ import annotations

from typing import Iterable

import numpy as np

from ...framework.parameter import Parameter
from .sgd import SGD

__all__ = ["LARS", "LARC"]


class _LayerAdaptive(SGD):
    """Shared machinery: momentum SGD with a per-layer rate adaptor."""

    def __init__(self, params: Iterable[Parameter], lr: float,
                 momentum: float = 0.9, weight_decay: float = 0.0,
                 trust_coefficient: float = 0.02, eps: float = 1e-8):
        super().__init__(params, lr, momentum=momentum, weight_decay=weight_decay)
        if trust_coefficient <= 0:
            raise ValueError("trust coefficient must be positive")
        self.trust = float(trust_coefficient)
        self.eps = float(eps)
        self.last_local_rates: dict[str, float] = {}

    def _local_rate(self, param: Parameter, grad: np.ndarray) -> float:
        w_norm = float(np.linalg.norm(param.master_value()))
        g_norm = float(np.linalg.norm(grad))
        if w_norm == 0.0 or g_norm == 0.0:
            return self.lr
        local = self.trust * w_norm / (g_norm + self.weight_decay * w_norm + self.eps)
        return self._combine(local)

    def _combine(self, local: float) -> float:
        raise NotImplementedError

    def _delta(self, param: Parameter, grad: np.ndarray) -> np.ndarray:
        rate = self._local_rate(param, grad)
        self.last_local_rates[param.name] = rate
        grad = self._effective_grad(param, grad)
        # Scale the gradient so the base momentum update uses the adapted rate.
        scaled = np.multiply(grad, rate / self.lr, out=self._scratch(grad))
        if self.momentum:
            scaled = self._momentum(param, scaled)
        return np.multiply(scaled, -self.lr, out=self._scratch(scaled))


class LARS(_LayerAdaptive):
    """Layer-wise Adaptive Rate Scaling: multiply by the global schedule."""

    def _combine(self, local: float) -> float:
        return local * self.lr


class LARC(_LayerAdaptive):
    """Layer-wise Adaptive Rate Control: clip at the global schedule.

    The clip means the update norm never exceeds what plain SGD at the
    global rate would do — the property that removes LARS's warm-up
    requirement (Section V-B2).
    """

    def _combine(self, local: float) -> float:
        return min(local, self.lr)
