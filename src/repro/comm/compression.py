"""Gradient compression: top-k sparsification and int8 quantization.

Section VIII-B: "compression techniques can be used at the expense of
already heavily utilized main processors" to relieve the data plane.  This
module implements the standard recipes the paper alludes to:

* **top-k sparsification** — per tensor, keep only the k largest-magnitude
  entries (indices + values), shrinking the all-reduce volume by ~C/k;
* **int8 quantization** — per tensor, linear symmetric quantization to one
  byte per element plus a float scale (4x volume saving on fp32);
* **error feedback** — whatever a compressor drops (the residual) is
  accumulated locally and added to the next step's gradient, which is what
  keeps lossy-compressed SGD convergent (Stich et al.).  Residual state is
  exportable (:meth:`~_ErrorFeedbackCompressor.state`) so it can ride
  checkpoints and survive elastic shrink;
* gather-style exchanges of the compressed payloads over the functional
  wire, with byte accounting so the bandwidth saving is measurable.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .simmpi import World

__all__ = [
    "TopKCompressor",
    "Int8Compressor",
    "SparseGradient",
    "QuantizedGradient",
    "make_compressor",
    "sparse_allreduce",
]


@dataclass
class SparseGradient:
    """A compressed tensor: flat indices + values + original shape."""

    indices: np.ndarray   # int64 flat indices, sorted
    values: np.ndarray    # float32 values at those indices
    shape: tuple[int, ...]

    @property
    def nbytes(self) -> int:
        return self.indices.nbytes + self.values.nbytes

    def densify(self) -> np.ndarray:
        out = np.zeros(int(np.prod(self.shape)), dtype=np.float32)
        out[self.indices] = self.values
        return out.reshape(self.shape)


class _ErrorFeedbackCompressor:
    """Shared residual bookkeeping for lossy gradient compressors.

    Residuals are keyed by tensor name and are plain float32 arrays, so the
    whole compressor state serializes as an array dict — exactly what the
    checkpoint layer stores (see ``DistributedTrainer.comm_state``).
    """

    kind = "base"

    def __init__(self):
        self._residual: dict[str, np.ndarray] = {}

    def reset(self) -> None:
        self._residual.clear()

    def state(self) -> dict[str, np.ndarray]:
        """Copy of the error-feedback residuals, keyed by tensor name."""
        return {k: v.copy() for k, v in self._residual.items()}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        """Replace the residuals (e.g. after a checkpoint restore)."""
        self._residual = {k: np.asarray(v, dtype=np.float32).copy()
                          for k, v in state.items()}


class TopKCompressor(_ErrorFeedbackCompressor):
    """Per-tensor top-k compression with local error feedback."""

    kind = "topk"

    def __init__(self, ratio: float = 0.01):
        if not 0.0 < ratio <= 1.0:
            raise ValueError(f"compression ratio must be in (0, 1], got {ratio}")
        super().__init__()
        self.ratio = float(ratio)

    def compress(self, name: str, grad: np.ndarray) -> SparseGradient:
        """Compress ``grad`` (plus carried residual); store the new residual."""
        g = np.asarray(grad, dtype=np.float32)
        flat = g.ravel().copy()
        if name in self._residual:
            flat += self._residual[name]
        k = max(int(round(self.ratio * flat.size)), 1)
        if k >= flat.size:
            idx = np.arange(flat.size)
        else:
            idx = np.argpartition(np.abs(flat), -k)[-k:]
            idx.sort()
        values = flat[idx].copy()
        residual = flat
        residual[idx] = 0.0
        self._residual[name] = residual
        return SparseGradient(idx.astype(np.int64), values, g.shape)


@dataclass
class QuantizedGradient:
    """A linearly quantized tensor: int8 codes + one float scale."""

    q: np.ndarray         # int8 codes
    scale: float          # dequantized value = q * scale
    shape: tuple[int, ...]

    @property
    def nbytes(self) -> int:
        return self.q.nbytes + 4  # codes + the float32 scale

    def densify(self) -> np.ndarray:
        return (self.q.astype(np.float32) * np.float32(self.scale)).reshape(self.shape)


class Int8Compressor(_ErrorFeedbackCompressor):
    """Symmetric linear int8 quantization with local error feedback."""

    kind = "int8"

    def compress(self, name: str, grad: np.ndarray) -> QuantizedGradient:
        """Quantize ``grad`` (plus carried residual); store the new residual."""
        g = np.asarray(grad, dtype=np.float32)
        flat = g.ravel().copy()
        if name in self._residual:
            flat += self._residual[name]
        peak = float(np.abs(flat).max()) if flat.size else 0.0
        scale = peak / 127.0 if peak > 0.0 else 1.0
        q = np.clip(np.rint(flat / np.float32(scale)), -127, 127).astype(np.int8)
        self._residual[name] = flat - q.astype(np.float32) * np.float32(scale)
        return QuantizedGradient(q, scale, g.shape)


def make_compressor(kind: str, ratio: float = 0.01) -> _ErrorFeedbackCompressor:
    """Build a compressor by kind (``"topk"`` or ``"int8"``)."""
    if kind == "topk":
        return TopKCompressor(ratio)
    if kind == "int8":
        return Int8Compressor()
    raise ValueError(f"unknown compressor kind {kind!r}; expected 'topk' or 'int8'")


#: Message tags of the sparse all-gather (indices, then values at +1).
SPARSE_TAG = 700


def sparse_allreduce(
    world: World,
    sparse_grads: list[SparseGradient],
    average: bool = True,
) -> list[np.ndarray]:
    """All-reduce sparse gradients: gather payloads, sum densified, share.

    Sparse payloads cannot ride a ring reduce-scatter (indices differ per
    rank), so the exchange is an all-gather of (indices, values) — still a
    ~C/k volume saving when k is small.  Returns the dense averaged gradient
    on every rank.
    """
    n = world.size
    if len(sparse_grads) != n:
        raise ValueError(f"need {n} sparse gradients, got {len(sparse_grads)}")
    shape = sparse_grads[0].shape
    for i, s in enumerate(sparse_grads):
        if s.shape != shape:
            raise ValueError(f"rank {i} shape {s.shape} != {shape}")
    # All-gather: every rank sends its payload to every other rank.
    for src in range(n):
        payload_idx = sparse_grads[src].indices
        payload_val = sparse_grads[src].values
        for dst in range(n):
            if dst != src:
                world.send(payload_idx, src, dst, SPARSE_TAG)
                world.send(payload_val, src, dst, SPARSE_TAG + 1)
    results = []
    size = int(np.prod(shape))
    for dst in range(n):
        # Accumulate in canonical src order so every rank performs the
        # *same* float additions — replicas must stay bit-identical.
        total = np.zeros(size, dtype=np.float32)
        for src in range(n):
            if src == dst:
                idx = sparse_grads[dst].indices
                val = sparse_grads[dst].values
            else:
                idx = world.recv(dst, src, SPARSE_TAG)
                val = world.recv(dst, src, SPARSE_TAG + 1)
            np.add.at(total, idx, val)
        if average:
            total /= n
        results.append(total.reshape(shape))
    return results
