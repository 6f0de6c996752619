"""Per-thread workspace arena: the scratch memory conv plans borrow per call.

cuDNN replays a planned convolution with a workspace the framework lends
it for that one call (the ``workSpace`` argument of
``cudnnConvolutionForward`` and its backward twins); the plan itself keeps
only what outlives the call.  This module is that lender on the NumPy
substrate.  Each thread has one grow-only *slab* per role, and
:func:`take` hands out a typed, shaped view of the slab's front:

* ``xp`` — the padded (or dtype-promoted) input that im2col reads;
* ``cols`` — a no-tape im2col column matrix (a taped forward's columns
  must survive until its weight gradient, so the plan owns those);
* ``tap_gemm`` — the column-free forward's guarded tap GEMM output;
* ``dcols`` — the strided input gradient's column GEMM output;
* ``gpad`` — the unit-stride input gradient's pitched ``grad_out``;
* ``dtaps`` — the unit-stride input gradient's per-tap GEMM output.

One layer runs at a time on a thread, so each role needs one slab sized to
the largest request it has served, not one buffer per layer.  A call that
uses two roles at once (``xp`` and ``cols``; ``gpad`` and ``dtaps``) gets
two slabs, so no live view overlaps another, and a view never outlives the
call that took it.  A view holds whatever the previous call left: a kernel
writes every element it reads on every call, the zero regions it relies on
included.

Each slab sits on an anonymous mapping of its own (:func:`mapped`), so a
slab replaced by a larger one goes back to the OS once its last view dies.
"""
from __future__ import annotations

import math
import mmap
import threading

import numpy as np

__all__ = ["mapped", "take", "workspace_stats", "clear_workspace"]

#: The scratch roles a conv plan borrows, one slab each per thread.
ROLES = ("xp", "cols", "tap_gemm", "dcols", "gpad", "dtaps")


def mapped(shape: tuple[int, ...], dtype) -> np.ndarray:
    """An array on an anonymous memory mapping of its own.

    Large long-lived scratch (gradient bucket buffers, workspace slabs)
    would be mapped by malloc too, but releasing such a block raises
    glibc's mmap threshold to its size, and from then on every smaller
    transient is carved from a heap that does not give memory back.  A
    mapping of its own returns to the OS when its last array is dropped.
    """
    nbytes = max(math.prod(shape) * np.dtype(dtype).itemsize, 1)
    return np.ndarray(shape, dtype,
                      buffer=mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE))


class _Arena(threading.local):
    """One thread's slabs and their counters."""

    def __init__(self):
        self.slabs: dict[str, np.ndarray] = {}
        self.grows = dict.fromkeys(ROLES, 0)
        self.requests = dict.fromkeys(ROLES, 0)


_ARENA = _Arena()


def take(role: str, shape: tuple[int, ...], dtype) -> np.ndarray:
    """A C-contiguous ``shape``/``dtype`` view of this thread's ``role``
    slab, grown first if it is smaller than the request.  Its contents are
    unspecified (the previous user's data, or zeros on a fresh slab)."""
    arena = _ARENA
    dtype = np.dtype(dtype)
    nbytes = math.prod(shape) * dtype.itemsize
    arena.requests[role] += 1
    slab = arena.slabs.get(role)
    if slab is None or slab.size < nbytes:
        slab = arena.slabs[role] = mapped((nbytes,), np.uint8)
        arena.grows[role] += 1
    return slab[:nbytes].view(dtype).reshape(shape)


def workspace_stats() -> dict[str, dict[str, int]]:
    """Per role, this thread's slab size in bytes, how many times it grew
    and how many views it handed out."""
    arena = _ARENA
    return {role: {"bytes": arena.slabs[role].size if role in arena.slabs
                   else 0,
                   "grows": arena.grows[role],
                   "requests": arena.requests[role]}
            for role in ROLES}


def clear_workspace() -> None:
    """Drop this thread's slabs and zero its counters (a fresh arena)."""
    _ARENA.__init__()
