"""Batch normalization layer (training + inference modes, running stats)."""
from __future__ import annotations

import numpy as np

from .. import init as initializers
from ..graph import ShapeProbe
from ..module import Module
from ..ops.norm import batchnorm_backward, batchnorm_forward, batchnorm_infer
from ..parameter import Parameter
from ..tensor import Tensor, join_ranks, split_ranks, stacked_ranks

__all__ = ["BatchNorm2D"]


class BatchNorm2D(Module):
    """Per-channel batch norm over (N, H, W).

    Parameters stay FP32 even in mixed precision (the cuDNN convention);
    running statistics are tracked with momentum ``momentum``, one row per
    simulated rank (``rank_mean``/``rank_var``, ``(ranks, C)``).  Row 0 is
    the layer's ``running_mean``/``running_var``, what :meth:`buffers`,
    checkpoints and inference see.
    """

    #: Variance epsilon and running-statistics momentum (PyTorch's values).
    eps = 1e-5
    momentum = 0.1

    def __init__(self, channels: int, name: str = "bn"):
        super().__init__()
        self.channels = int(channels)
        self.gamma = Parameter(initializers.ones((channels,)), name=f"{name}.gamma")
        self.beta = Parameter(initializers.zeros((channels,)), name=f"{name}.beta")
        self.rank_mean = np.zeros((1, channels), dtype=np.float32)
        self.rank_var = np.ones((1, channels), dtype=np.float32)

    @property
    def running_mean(self) -> np.ndarray:
        return self.rank_mean[0]

    @property
    def running_var(self) -> np.ndarray:
        return self.rank_var[0]

    def buffers(self) -> dict[str, np.ndarray]:
        return {"running_mean": self.running_mean, "running_var": self.running_var}

    def _restack(self, rows: list[int], memo: dict) -> None:
        # Every rank starts from the new rank 0's statistics (the broadcast).
        self.rank_mean = np.repeat(self.rank_mean[rows[:1]], len(rows), axis=0)
        self.rank_var = np.repeat(self.rank_var[rows[:1]], len(rows), axis=0)

    def forward(self, x):
        if isinstance(x, ShapeProbe):
            return self._trace(x)
        if x.shape[1] != self.channels:
            raise ValueError(f"batchnorm expects {self.channels} channels, got {x.shape[1]}")
        if self.training:
            return self._eager_train(x)
        return self._eager_infer(x)

    def _eager_train(self, x: Tensor) -> Tensor:
        gamma, beta = self.gamma, self.beta
        ranks = stacked_ranks()
        y, cache = batchnorm_forward(split_ranks(x.data, ranks), gamma.data,
                                     beta.data, self.eps)
        # Update each rank's running stats (float32, regardless of
        # activation dtype) from the batch statistics the op already reduced.
        *_, mean, var = cache
        rows = slice(0, 1) if ranks is None else slice(ranks.start, ranks.stop)
        running_mean, running_var = self.rank_mean[rows], self.rank_var[rows]
        batch_mean = mean.reshape(running_mean.shape)
        batch_var = var.reshape(running_var.shape)
        m = self.momentum
        running_mean *= 1 - m
        running_mean += m * batch_mean
        running_var *= 1 - m
        running_var += m * batch_var

        def backward(g: np.ndarray) -> None:
            dx, dgamma, dbeta = batchnorm_backward(split_ranks(g, ranks), cache)
            if x.requires_grad:
                x.accumulate_grad(join_ranks(dx, x.shape))
            gamma.accumulate_grad(dgamma)
            beta.accumulate_grad(dbeta)

        return Tensor.from_op(join_ranks(y, x.shape), (x, gamma, beta),
                              backward, "batchnorm")

    def _eager_infer(self, x: Tensor) -> Tensor:
        gamma, beta = self.gamma, self.beta
        y = batchnorm_infer(x.data, gamma.data, beta.data,
                            self.running_mean, self.running_var, self.eps)
        inv_std = 1.0 / np.sqrt(self.running_var + self.eps)
        scale = (gamma.data * inv_std).reshape(1, -1, 1, 1)

        def backward(g: np.ndarray) -> None:
            if x.requires_grad:
                x.accumulate_grad(g * scale.astype(g.dtype))

        return Tensor.from_op(y, (x, gamma, beta), backward, "batchnorm_infer")

    def _trace(self, x: ShapeProbe) -> ShapeProbe:
        tr = x.tracer
        numel = x.size
        nbytes = tr.tensor_bytes(x.shape)
        # Two reduction passes plus the normalize pass.
        tr.emit("batchnorm_fwd", "pointwise_fwd", 8 * numel, 3 * nbytes)
        tr.note_activation(x.shape)  # xhat cache kept for backward
        if tr.include_backward:
            tr.emit("batchnorm_bwd", "pointwise_bwd", 11 * numel, 4 * nbytes)
        return x
