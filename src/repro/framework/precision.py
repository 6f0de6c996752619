"""Mixed-precision training utilities: loss scaling and the FP16 policy.

The paper's FP16 runs use V100 Tensor Cores with FP32 accumulations; on the
NumPy substrate the same numerics are achieved by storing activations and
working weights in ``float16`` (kernels accumulate in FP32, see
:mod:`repro.framework.ops.conv`) and keeping FP32 master weights in the
optimizer.  Loss scaling keeps small gradients above the FP16 denormal
threshold; *dynamic* loss scaling backs off when gradients overflow, which
is exactly the mechanism that exposes the inverse-frequency-weight
instability of Section V-B1.
"""
from __future__ import annotations

import numpy as np

from .module import Module

__all__ = ["LossScaler", "apply_fp16_policy"]


class LossScaler:
    """Static or dynamic loss scaling for FP16 training.

    Usage (what :meth:`repro.core.trainer.Trainer.unscale` does)::

        scaler.scale_loss(loss).backward()
        finite = all(np.isfinite(g).all() for g in grads)
        grads = [g.astype(np.float32) * (1.0 / scaler.scale) for g in grads]
        scaler.update(finite)   # back off on overflow, else count a step
        if finite:
            optimizer.step()    # on the unscaled FP32 grads
    """

    def __init__(
        self,
        init_scale: float = 2.0**15,
        dynamic: bool = True,
        growth_factor: float = 2.0,
        backoff_factor: float = 0.5,
        growth_interval: int = 200,
        min_scale: float = 1.0,
        max_scale: float = 2.0**24,
    ):
        if init_scale <= 0:
            raise ValueError("init_scale must be positive")
        self.scale = float(init_scale)
        self.dynamic = bool(dynamic)
        self.growth_factor = float(growth_factor)
        self.backoff_factor = float(backoff_factor)
        self.growth_interval = int(growth_interval)
        self.min_scale = float(min_scale)
        self.max_scale = float(max_scale)
        self._good_steps = 0
        self.num_overflows = 0

    def scale_loss(self, loss):
        """Multiply the loss tensor by the current scale (autodiff-aware)."""
        return loss * self.scale

    def update(self, finite: bool) -> None:
        """Advance the scale by one step's outcome: back off and restart the
        growth count on overflow, else count a good step (growing the scale
        every ``growth_interval`` of them)."""
        if not finite:
            self.num_overflows += 1
            if self.dynamic:
                self.scale = max(self.scale * self.backoff_factor, self.min_scale)
            self._good_steps = 0
        elif self.dynamic:
            self._good_steps += 1
            if self._good_steps >= self.growth_interval:
                self.scale = min(self.scale * self.growth_factor, self.max_scale)
                self._good_steps = 0


def apply_fp16_policy(model: Module) -> Module:
    """Convert a model to the paper's mixed-precision regime.

    Conv/deconv weights get FP16 working copies with FP32 masters; batch-norm
    parameters stay FP32 (the cuDNN convention — they are tiny and
    precision-sensitive).
    """
    for _, p in model.named_parameters():
        if p.data.ndim >= 2:  # conv / deconv kernels
            p.enable_master_copy()
            p.cast_(np.float16)
        # 1-D params (BN gamma/beta, biases) remain FP32.
    return model
