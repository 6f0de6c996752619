"""A small reverse-mode autodiff tensor on top of NumPy.

This plays the role TensorFlow plays in the paper: networks are built from
differentiable operations recorded on a tape, and ``Tensor.backward`` runs the
reverse pass.  The tape doubles as the *operation graph* that the paper's
FLOP-counting methodology (Section VI) traverses; see
:mod:`repro.framework.graph` for the symbolic analysis counterpart.

Only the operations the segmentation networks need are implemented: ``+``,
``*``, ``sum``, ``reshape``, ``relu``, :func:`concatenate` and its
copy-free twin :func:`channel_view` (convolution, normalization, pooling,
upsampling and the loss are layers with their own kernels).  Each is
implemented completely (forward + backward, with broadcasting) and is
validated against finite differences in the test-suite.
"""
from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = ["Tensor", "concatenate", "channel_view", "no_grad",
           "is_grad_enabled", "rank_stack", "stacked_ranks", "split_ranks",
           "join_ranks"]

_GRAD_ENABLED = True
_RANKS: range | None = None


class no_grad:
    """Context manager disabling tape recording (like ``torch.no_grad``)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


def is_grad_enabled() -> bool:
    return _GRAD_ENABLED


class rank_stack:
    """Context manager: the batch axis stacks the equal batches of simulated
    ranks ``ranks`` (a ``range``), like :class:`no_grad` for tape recording.

    Inside a stack everything that couples one sample to another works per
    rank slice: batch norm normalizes each slice with that rank's running
    statistics, dropout draws each slice's mask from that rank's generator,
    the loss is one weighted mean per rank, and every parameter gradient
    carries a leading rank axis (one batch sum per rank).  A one-rank stack
    computes exactly what no stack does (no rank axes), with that rank's
    statistics and generator.
    """

    def __init__(self, ranks: range | None):
        self.ranks = ranks

    def __enter__(self):
        global _RANKS
        self._prev = _RANKS
        _RANKS = self.ranks
        return self

    def __exit__(self, *exc):
        global _RANKS
        _RANKS = self._prev
        return False


def stacked_ranks() -> range | None:
    """The ranks the current :class:`rank_stack` stacks (``None``: none)."""
    return _RANKS


def split_ranks(a: np.ndarray, ranks: range | None) -> np.ndarray:
    """``a`` with its batch axis split into ``(len(ranks), batch/len(ranks))``,
    the per-rank layout the kernels reduce over.  Unchanged outside a stack
    of two or more ranks: a one-rank stack is the plain batch."""
    if ranks is None or len(ranks) == 1:
        return a
    return a.reshape(len(ranks), -1, *a.shape[1:])


def join_ranks(a: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Undo :func:`split_ranks`: ``a`` reshaped to the batch ``shape``."""
    return a if a.shape == shape else a.reshape(shape)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (reverse of NumPy broadcasting)."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """An n-d array with reverse-mode autodiff.

    Parameters
    ----------
    data:
        Array-like payload; converted to ``np.ndarray`` (dtype preserved,
        Python floats become float64).
    requires_grad:
        Whether gradients should flow to this tensor.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "op_name")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self.op_name = "leaf"

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_op(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
        op_name: str,
    ) -> "Tensor":
        """Create a tensor produced by an op, wiring the tape.

        ``backward`` receives the upstream gradient and is responsible for
        calling :meth:`accumulate_grad` on each parent that requires grad.
        """
        req = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor(data)
        out.requires_grad = req
        if req:
            out._backward = backward
            out._parents = tuple(parents)
            out.op_name = op_name
        return out

    # -- basic protocol ----------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.dtype}, op={self.op_name!r})"

    def __len__(self) -> int:
        return len(self.data)

    # -- autodiff ----------------------------------------------------------

    def accumulate_grad(self, g: np.ndarray) -> None:
        """Add ``g`` into this tensor's gradient buffer."""
        if not self.requires_grad:
            return
        g = np.asarray(g, dtype=self.data.dtype)
        if self.grad is None:
            self.grad = g.copy() if g.base is not None or g is self.data else g
        else:
            self.grad = self.grad + g

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Run reverse-mode autodiff from this tensor, seeded with ones (the
        gradient of a scalar loss, or of the sum of a non-scalar output).
        """
        # Topological order over the tape.
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen and p.requires_grad:
                    stack.append((p, False))
        self.accumulate_grad(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(np.asarray(other))

    def __add__(self, other):
        other = Tensor._coerce(other)
        out_data = self.data + other.data

        def backward(g: np.ndarray) -> None:
            self.accumulate_grad(_unbroadcast(g, self.shape))
            other.accumulate_grad(_unbroadcast(g, other.shape))

        return Tensor.from_op(out_data, (self, other), backward, "add")

    __radd__ = __add__

    def __mul__(self, other):
        other = Tensor._coerce(other)
        out_data = self.data * other.data

        def backward(g: np.ndarray) -> None:
            self.accumulate_grad(_unbroadcast(g * other.data, self.shape))
            other.accumulate_grad(_unbroadcast(g * self.data, other.shape))

        return Tensor.from_op(out_data, (self, other), backward, "mul")

    __rmul__ = __mul__

    # -- reduction / shape -------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g: np.ndarray) -> None:
            gg = np.asarray(g)
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                axes = tuple(a % self.ndim for a in axes)
                gg = np.expand_dims(gg, axis=axes)
            self.accumulate_grad(np.broadcast_to(gg, self.shape))

        return Tensor.from_op(out_data, (self,), backward, "sum")

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        src_shape = self.shape

        def backward(g: np.ndarray) -> None:
            self.accumulate_grad(g.reshape(src_shape))

        return Tensor.from_op(self.data.reshape(shape), (self,), backward, "reshape")

    # -- non-linearity -----------------------------------------------------

    def relu(self):
        mask = self.data > 0

        def backward(g: np.ndarray) -> None:
            self.accumulate_grad(g * mask)

        # ``maximum``, not ``data * mask``: -inf * 0 would be NaN.
        return Tensor.from_op(np.maximum(self.data, 0), (self,), backward,
                              "relu")


def _split_backward(tensors: Sequence[Tensor], axis: int):
    """Concatenation's backward: each part takes its slice of the gradient,
    in part order."""
    offsets = np.cumsum([0] + [t.shape[axis] for t in tensors])

    def backward(g: np.ndarray) -> None:
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            t.accumulate_grad(g[tuple(sl)])

    return backward


def concatenate(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Differentiable concatenation (DeepLab's ASPP branch merge uses this)."""
    tensors = [Tensor._coerce(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    return Tensor.from_op(data, tensors, _split_backward(tensors, axis),
                          "concat")


def channel_view(buf: np.ndarray, lo: int, parts: Sequence[Tensor]) -> Tensor:
    """The channel concatenation of ``parts``, already written into
    ``buf[:, lo:...]`` by the caller, as a read-only view of ``buf``.

    Taped exactly like :func:`concatenate` along axis 1 (same parents, same
    split backward), so gradients are bit for bit those of the copy it
    replaces; the view is read-only because the buffer is shared.
    """
    hi = lo + sum(t.shape[1] for t in parts)
    data = buf[:, lo:hi]
    data.flags.writeable = False
    return Tensor.from_op(data, parts, _split_backward(parts, 1), "concat")
