"""Inverted dropout (Tiramisu dense layers use p=0.2 in the original)."""
from __future__ import annotations

import copy

import numpy as np

from ..graph import ShapeProbe
from ..module import Module
from ..tensor import Tensor, stacked_ranks

__all__ = ["Dropout"]


class Dropout(Module):
    """Inverted dropout: active in training mode, identity in eval mode.

    ``rngs`` holds one generator per simulated rank; inside a
    :class:`~repro.framework.tensor.rank_stack` each rank's slice of the
    batch draws its mask from its own generator.
    """

    def __init__(self, p: float = 0.5, rng: np.random.Generator | None = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = float(p)
        self.rngs = [rng or np.random.default_rng(0)]

    def _restack(self, rows: list[int], memo: dict) -> None:
        # New rank i continues old rank rows[i]'s generator; a rank listed
        # twice gets a copy.  Layers that shared a generator keep sharing
        # it per rank, through ``memo``.
        fresh = []
        for i, r in enumerate(rows):
            g = self.rngs[r]
            key = (id(g), i)
            if key not in memo:
                memo[key] = g if rows.index(r) == i else copy.deepcopy(g)
            fresh.append(memo[key])
        self.rngs = fresh

    def forward(self, x):
        if isinstance(x, ShapeProbe):
            tr = x.tracer
            nbytes = tr.tensor_bytes(x.shape)
            tr.emit("dropout_fwd", "pointwise_fwd", 2 * x.size, 2 * nbytes)
            tr.note_activation(x.shape)  # the dropout mask
            if tr.include_backward:
                tr.emit("dropout_bwd", "pointwise_bwd", x.size, 2 * nbytes)
            return x
        if not self.training or self.p == 0.0:
            return x
        keep = 1.0 - self.p
        ranks = stacked_ranks() or range(1)
        draws = np.empty(x.shape)
        for g, part in zip(self.rngs[ranks.start:ranks.stop],
                           np.split(draws, len(ranks)), strict=True):
            g.random(out=part)
        mask = (draws < keep).astype(x.dtype) / np.asarray(keep, dtype=x.dtype)

        def backward(g: np.ndarray) -> None:
            x.accumulate_grad(g * mask)

        return Tensor.from_op(x.data * mask, (x,), backward, f"dropout[{self.p}]")
