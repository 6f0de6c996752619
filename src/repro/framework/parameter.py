"""Trainable parameters with optional FP32 master copies.

In the paper's mixed-precision mode, the model computes in FP16 but the
optimizer updates an FP32 *master* copy of each weight; the FP16 working copy
is refreshed from the master after every step.  ``Parameter`` implements both
the plain-FP32 and the master-copy regimes.
"""
from __future__ import annotations

import numpy as np

from ..errors import ReproError
from .init import in_shape_only_scope
from .tensor import Tensor, stacked_ranks

__all__ = ["Parameter"]


class Parameter(Tensor):
    """A leaf tensor that an optimizer updates.

    Parameters
    ----------
    data:
        Initial value (stored at the given ``dtype``).
    name:
        Dotted path assigned by the owning module tree; used by LARC (which
        needs per-layer norms) and by Horovod-style gradient negotiation
        (which needs stable tensor names across ranks).

    A parameter created inside :func:`repro.framework.init.shape_only` is a
    placeholder for graph analysis: it has a shape and a dtype but no
    weights, and :meth:`require_weights` rejects any attempt to train or
    save it.

    ``slot``, when set, is a ``(ranks, *shape)`` array (a view of the
    gradient exchange's bucket buffer) that gradients computed inside a
    :class:`~repro.framework.tensor.rank_stack` are written into, one row
    per rank, instead of into a fresh array.
    """

    __slots__ = ("name", "master", "shape_only", "slot")

    def __init__(self, data, name: str = "param"):
        super().__init__(np.asarray(data), requires_grad=True)
        self.name = name
        self.master: np.ndarray | None = None
        self.shape_only = in_shape_only_scope()
        self.slot: np.ndarray | None = None

    def accumulate_grad(self, g: np.ndarray) -> None:
        """As :meth:`Tensor.accumulate_grad`; inside a rank stack, with a
        ``slot``, the gradient lands in the stacked ranks' rows (a one-rank
        stack's gradient has no rank axis, see
        :func:`~repro.framework.tensor.split_ranks`)."""
        ranks = stacked_ranks()
        if self.slot is None or ranks is None or not self.requires_grad:
            super().accumulate_grad(g)
        elif self.grad is None:
            rows = self.slot[ranks.start:ranks.stop]
            self.grad = rows if len(ranks) > 1 else rows[0]
            np.copyto(self.grad, g)
        else:
            np.add(self.grad, g, out=self.grad)

    def require_weights(self) -> None:
        """Raise unless this parameter holds real, updatable weights."""
        if self.shape_only:
            raise ReproError(
                f"parameter {self.name!r} is shape-only (built under "
                "init.shape_only() for graph analysis): it has no weights to "
                "update or save")

    def enable_master_copy(self) -> None:
        """Keep an FP32 master copy for mixed-precision training."""
        if self.master is None:
            self.master = self.data.astype(np.float32)

    def apply_update(self, delta: np.ndarray) -> None:
        """Apply an additive update, routed through the master copy if any."""
        self.require_weights()
        if self.master is not None:
            self.master = self.master + np.asarray(delta, dtype=np.float32)
            self.data = self.master.astype(self.data.dtype)
        else:
            self.data = self.data + np.asarray(delta, dtype=self.data.dtype)

    def master_value(self) -> np.ndarray:
        """The highest-precision view of the parameter value."""
        return self.master if self.master is not None else self.data

    def cast_(self, dtype) -> None:
        """In-place dtype change of the working copy (used by precision policy)."""
        self.data = self.data.astype(dtype)

    def __repr__(self) -> str:
        return f"Parameter(name={self.name!r}, shape={self.shape}, dtype={self.dtype})"
