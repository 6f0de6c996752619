"""Halo exchange for spatial domain decomposition.

Section VIII-B of the paper: "Systems like Summit (with high speed NVLink
connections between processors) are amenable to domain decomposition
techniques that split layers across processors."  This module implements the
communication primitive that makes that work: each rank owns a horizontal
stripe of the (N, C, H, W) activation tensor and, before every convolution,
exchanges ``halo`` boundary rows with its neighbours so the stencil can be
evaluated without seams.

The exchange runs over the functional MPI wire, so tests can verify both
numerics (distributed conv == single-device conv, exactly) and traffic
(2 messages per interior boundary, halo*C*W elements each).
"""
from __future__ import annotations

import numpy as np

from .simmpi import World

__all__ = ["stripe_bounds", "split_stripes", "halo_exchange", "gather_stripes"]


def stripe_bounds(height: int, ranks: int) -> list[tuple[int, int]]:
    """Contiguous [lo, hi) row ranges per rank (difference of sizes <= 1)."""
    if ranks < 1:
        raise ValueError("ranks must be >= 1")
    if height < ranks:
        raise ValueError(f"cannot split {height} rows over {ranks} ranks")
    edges = np.linspace(0, height, ranks + 1).astype(int)
    return [(int(lo), int(hi)) for lo, hi in zip(edges[:-1], edges[1:])]


def split_stripes(x: np.ndarray, ranks: int) -> list[np.ndarray]:
    """Split (N, C, H, W) into per-rank horizontal stripes (copies)."""
    bounds = stripe_bounds(x.shape[2], ranks)
    return [x[:, :, lo:hi].copy() for lo, hi in bounds]


#: Message tags of the halo exchange (upward rows; downward rows at +1).
HALO_TAG = 500


def halo_exchange(world: World, stripes: list[np.ndarray],
                  halo: int) -> list[np.ndarray]:
    """Pad each stripe with ``halo`` rows from its neighbours.

    Boundary ranks (top of rank 0, bottom of the last rank) get zero padding,
    matching the zero-padded convolution they jointly implement.  Returns new
    arrays of height ``stripe_h + 2*halo``.
    """
    n_ranks = len(stripes)
    if n_ranks != world.size:
        raise ValueError(f"need {world.size} stripes, got {n_ranks}")
    if halo < 0:
        raise ValueError("halo must be >= 0")
    if halo == 0:
        return [s.copy() for s in stripes]
    for r, s in enumerate(stripes):
        if s.shape[2] < halo:
            raise ValueError(
                f"rank {r} stripe height {s.shape[2]} smaller than halo {halo}"
            )
    # Post all sends first (non-blocking semantics), then receive.
    for r, s in enumerate(stripes):
        if r > 0:
            # my top rows -> up
            world.send(s[:, :, :halo], r, r - 1, HALO_TAG)
        if r < n_ranks - 1:
            # my bottom rows -> down
            world.send(s[:, :, -halo:], r, r + 1, HALO_TAG + 1)
    padded = []
    for r, s in enumerate(stripes):
        n, c, h, w = s.shape
        out = np.zeros((n, c, h + 2 * halo, w), dtype=s.dtype)
        out[:, :, halo : halo + h] = s
        if r > 0:
            out[:, :, :halo] = world.recv(r, r - 1, HALO_TAG + 1)
        if r < n_ranks - 1:
            out[:, :, halo + h :] = world.recv(r, r + 1, HALO_TAG)
        padded.append(out)
    return padded


def gather_stripes(stripes: list[np.ndarray]) -> np.ndarray:
    """Reassemble per-rank stripes into the full tensor."""
    return np.concatenate(stripes, axis=2)
