"""Probe-aware functional ops used inside network ``forward`` methods.

Residual adds and skip concatenations happen outside layer objects, so these
helpers accept either eager :class:`Tensor` or symbolic :class:`ShapeProbe`
arguments and do the right thing for each.  Concatenation emits ``copy``
kernel records: TensorFlow materializes concats with copy kernels, which the
paper's Figure 3 accounts for under "Copies/Transposes".
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .graph import ShapeProbe
from .tensor import Tensor, channel_view, concatenate

__all__ = ["add", "concat", "relu", "FeatureStack"]


def add(a, b):
    """Elementwise add (residual connections)."""
    if isinstance(a, ShapeProbe) or isinstance(b, ShapeProbe):
        probe = a if isinstance(a, ShapeProbe) else b
        other = b if probe is a else a
        if isinstance(other, ShapeProbe) and other.shape != probe.shape:
            raise ValueError(f"residual add shape mismatch: {probe.shape} vs {other.shape}")
        tr = probe.tracer
        nbytes = tr.tensor_bytes(probe.shape)
        tr.emit("residual_add_fwd", "pointwise_fwd", probe.size, 3 * nbytes)
        tr.note_activation(probe.shape)
        if tr.include_backward:
            # The add backward is pure fan-out (no kernel), but gradient
            # accumulation at the junction costs one pointwise pass.
            tr.emit("residual_add_bwd", "pointwise_bwd", probe.size, 2 * nbytes)
        return ShapeProbe(probe.shape, tr)
    return a + b


def concat(tensors: Sequence, axis: int = 1):
    """Channel concatenation (Tiramisu skips, ASPP branch merge)."""
    if any(isinstance(t, ShapeProbe) for t in tensors):
        probes = list(tensors)
        tr = probes[0].tracer
        base = probes[0].shape
        channels = 0
        total_bytes = 0
        for p in probes:
            if not isinstance(p, ShapeProbe):
                raise TypeError("cannot mix ShapeProbe and Tensor in concat")
            if p.shape[:axis] + p.shape[axis + 1 :] != base[:axis] + base[axis + 1 :]:
                raise ValueError(f"concat shape mismatch: {p.shape} vs {base}")
            channels += p.shape[axis]
            total_bytes += tr.tensor_bytes(p.shape)
        out_shape = list(base)
        out_shape[axis] = channels
        out_shape = tuple(out_shape)
        tr.emit("concat_copy", "copy", 0, 2 * total_bytes)
        tr.note_activation(out_shape)
        if tr.include_backward:
            tr.emit("concat_split_copy", "copy", 0, 2 * total_bytes)
        return ShapeProbe(out_shape, tr)
    return concatenate(list(tensors), axis=axis)


def relu(x):
    """Functional ReLU (for use at network junctions)."""
    if isinstance(x, ShapeProbe):
        tr = x.tracer
        nbytes = tr.tensor_bytes(x.shape)
        tr.emit("relu_fwd", "pointwise_fwd", x.size, 2 * nbytes)
        if tr.include_backward:
            tr.emit("relu_bwd", "pointwise_bwd", x.size, 2 * nbytes)
        return x
    return x.relu()


class FeatureStack:
    """A dense block's growing channel stack, in one buffer per call.

    Concatenating onto the stack after every layer re-copies everything
    before it, O(L^2) bytes per block.  Like the shared-storage DenseNet
    (Pleiss et al., arXiv:1707.06990), this allocates the block's final
    width once and writes every input part and every layer's new maps into
    their channel slice once; :attr:`stack` and :meth:`new` are read-only
    views of that buffer (:func:`~repro.framework.tensor.channel_view`),
    taped as the concat chain they replace, so gradients match it bit for
    bit.  Under a :class:`ShapeProbe` it *is* that chain of :func:`concat`
    calls: the kernel inventory still counts the copies a framework that
    materializes concats makes.
    """

    def __init__(self, parts: Sequence, channels: int):
        self._new: list = []
        if isinstance(parts[0], ShapeProbe):
            self._buf = None
            self.stack = parts[0] if len(parts) == 1 else concat(parts)
            return
        n, _, h, w = parts[0].shape
        self._buf = np.empty((n, channels, h, w),
                             dtype=np.result_type(*(p.dtype for p in parts)))
        lo = 0
        for p in parts:
            self._buf[:, lo:lo + p.shape[1]] = p.data
            lo += p.shape[1]
        self._start = lo
        self.stack = (parts[0] if len(parts) == 1
                      else channel_view(self._buf, 0, parts))

    def append(self, maps) -> None:
        """Put a layer's new ``maps`` on top of the stack."""
        self._new.append(maps)
        if self._buf is None:
            self.stack = concat([self.stack, maps])
            return
        lo = self.stack.shape[1]
        self._buf[:, lo:lo + maps.shape[1]] = maps.data
        self.stack = channel_view(self._buf, 0, (self.stack, maps))

    def new(self):
        """The concatenation of every appended layer's maps."""
        if self._buf is None:
            return self._new[0] if len(self._new) == 1 else concat(self._new)
        return channel_view(self._buf, self._start, self._new)
