"""Spatial model parallelism: convolutions over domain-decomposed inputs.

The paper's "future systems" discussion (Section VIII-B) calls model
parallelism via domain decomposition "indispensable in the foreseeable
future" for networks whose activations outgrow one GPU — exactly the
situation its own full-resolution decoder creates (a 1152x768x256 activation
is ~0.9 GB in FP32 at batch 1).

This module implements the forward path of that idea: the (N, C, H, W)
activation is split into horizontal stripes, one per rank; a halo exchange
(:mod:`repro.comm.halo`) ships ``dilation * (kernel-1) / 2`` boundary rows to
each neighbour; every rank then convolves only its stripe.  The result is
*exactly* equal to the single-device convolution — verified in tests — while
per-rank activation memory drops by the rank count.

Only stride-1 'same' convolutions are supported, which covers the
full-resolution decoder stages where spatial decomposition matters; strided
stages are small enough to stay data-parallel.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..comm.halo import gather_stripes, halo_exchange, split_stripes, stripe_bounds
from ..comm.simmpi import World
from ..framework.ops.conv import conv2d_forward

__all__ = ["SpatialPartition", "distributed_conv2d", "halo_rows_for",
           "activation_bytes_per_rank"]


def halo_rows_for(kernel: int, dilation: int = 1) -> int:
    """Boundary rows each neighbour must supply for a 'same' conv."""
    if kernel % 2 == 0:
        raise ValueError("spatial decomposition requires odd kernels")
    return dilation * (kernel - 1) // 2


@dataclass
class SpatialPartition:
    """A tensor split into per-rank stripes over a simulated world."""

    world: World
    stripes: list[np.ndarray]

    @staticmethod
    def scatter(world: World, x: np.ndarray) -> "SpatialPartition":
        """Split a full (N, C, H, W) tensor into one stripe per rank."""
        return SpatialPartition(world, split_stripes(x, world.size))

    def conv2d(self, weight: np.ndarray, dilation: int = 1) -> "SpatialPartition":
        """Distributed 'same' stride-1 convolution (halo exchange + local conv)."""
        return SpatialPartition(
            self.world,
            distributed_conv2d(self.world, self.stripes, weight, dilation),
        )

    def gather(self) -> np.ndarray:
        """Reassemble the full tensor (for verification / the final output)."""
        return gather_stripes(self.stripes)

    @property
    def stripe_heights(self) -> list[int]:
        return [s.shape[2] for s in self.stripes]


def distributed_conv2d(
    world: World,
    stripes: list[np.ndarray],
    weight: np.ndarray,
    dilation: int = 1,
) -> list[np.ndarray]:
    """Exactly replicate a stride-1 'same' conv over horizontal stripes.

    1. halo exchange of ``d (k-1)/2`` rows per boundary;
    2. each rank convolves its padded stripe, padding only the W axis
       explicitly (the H axis padding arrives via halos, with zero rows at
       the physical top/bottom).
    """
    f, c, kh, kw = weight.shape
    if kh != kw:
        raise ValueError("square kernels only")
    halo = halo_rows_for(kh, dilation)
    padded = halo_exchange(world, stripes, halo)
    outputs = []
    for stripe in padded:
        # Pad W only; H is already correct via the halo rows.
        pw = dilation * (kw - 1) // 2
        if pw:
            stripe = np.pad(stripe, ((0, 0), (0, 0), (0, 0), (pw, pw)))
        out = conv2d_forward(stripe, weight, stride=1, padding=0,
                             dilation=dilation)
        outputs.append(out)
    return outputs


#: Bytes per activation element (FP32).
ITEMSIZE = 4


def activation_bytes_per_rank(
    batch: int, channels: int, height: int, width: int,
    ranks: int, kernel: int,
) -> tuple[int, int]:
    """(full-tensor bytes, per-rank stripe+halo bytes) of an undilated
    FP32 'same' conv, for capacity planning.

    This is the memory argument for model parallelism: the paper's
    1152x768x256 decoder activations exceed comfortable V100 residency
    alongside weights and workspace; striping over the 6 NVLink-connected
    GPUs of a Summit node divides the activation burden accordingly.
    """
    full = batch * channels * height * width * ITEMSIZE
    bounds = stripe_bounds(height, ranks)
    tallest = max(hi - lo for lo, hi in bounds)
    halo = halo_rows_for(kernel)
    per_rank = batch * channels * (tallest + 2 * halo) * width * ITEMSIZE
    return full, per_rank
