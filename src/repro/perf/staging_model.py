"""Figure 5: weak scaling with node-local staging vs global file system.

On Piz Daint the paper compares Tiramisu throughput when input comes from
tmpfs-staged data (the default) against direct Lustre reads: they match at
small scale, but by 2048 GPUs the network demands ~110 GB/s — essentially
the file system's usable 112 GB/s — so the global-storage run loses 9.5%
efficiency (75.8% vs 83.4%) and shows much larger variability.  The paper
did not scale the global-storage configuration past 2048 nodes.
"""
from __future__ import annotations

from dataclasses import dataclass

from ..hpc.specs import PIZ_DAINT
from .scaling import ScalingModel, ScalingPoint

__all__ = ["Figure5Point", "figure5_curves", "aggregate_demand"]


@dataclass
class Figure5Point:
    """One GPU count with both storage configurations."""

    gpus: int
    local: ScalingPoint
    global_fs: ScalingPoint

    @property
    def efficiency_penalty(self) -> float:
        """Efficiency lost by skipping staging (percentage points)."""
        return (self.local.efficiency - self.global_fs.efficiency) * 100.0


def figure5_curves(gpu_counts: list[int] | None = None) -> list[Figure5Point]:
    """The two Figure 5 series on Piz Daint (the 4-channel Tiramisu)."""
    counts = gpu_counts or [1, 64, 128, 256, 512, 1024, 1536, 2048]
    network = "tiramisu_4ch"
    local = ScalingModel(network=network, system=PIZ_DAINT, precision="fp32",
                         lag=0, staging="local", straggler_sigma=0.045)
    global_fs = ScalingModel(network=network, system=PIZ_DAINT, precision="fp32",
                             lag=0, staging="global", straggler_sigma=0.045)
    return [Figure5Point(n, local.point(n), global_fs.point(n)) for n in counts]


def aggregate_demand(point: ScalingPoint, sample_bytes: float) -> float:
    """Input bandwidth the run pulls at this throughput (bytes/s)."""
    return point.images_per_second * sample_bytes
