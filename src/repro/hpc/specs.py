"""Hardware specifications for the paper's two systems.

Numbers come from Section VI-A of the paper and the cited TOP500 entries:

* **Piz Daint** (CSCS): 5320 XC50 nodes, one P100 each, Aries dragonfly,
  Lustre at 744 GB/s peak read (the paper measured an effective ~112 GB/s
  for the training read pattern), node-local staging only into tmpfs.
* **Summit** (ORNL): 4608 nodes, 6 V100s + 2 Power9s each, NVLink
  (300 GB/s bidirectional per GPU), dual-rail EDR InfiniBand virtualized as
  4 devices, 800 GB node-local burst-buffer SSD, Spectrum Scale (GPFS).

GPU peaks: V100 = 15.7 TF/s FP32 and 125 TF/s FP16 Tensor Core (750 TF/s
per node, as quoted in the paper); P100 = 9.5 TF/s FP32 (50.6 PF/s single
precision over 5320 nodes).
"""
from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "Link",
    "GpuSpec",
    "NodeSpec",
    "FileSystemSpec",
    "SystemSpec",
    "V100",
    "P100",
    "SUMMIT",
    "PIZ_DAINT",
]


@dataclass(frozen=True)
class Link:
    """One communication channel (alpha-beta model)."""

    alpha: float        # latency per message, s
    bandwidth: float    # bytes per second

    def transfer_time(self, volume: float) -> float:
        return self.alpha + volume / self.bandwidth


@dataclass(frozen=True)
class GpuSpec:
    """One accelerator's peak rates."""

    name: str
    fp32_peak: float        # FLOP/s
    fp16_peak: float        # FLOP/s (Tensor Core path for V100)
    mem_bandwidth: float    # bytes/s (HBM2)
    mem_bytes: float        # device memory

    def peak(self, precision: str) -> float:
        if precision in ("fp16",):
            return self.fp16_peak
        if precision in ("fp32", "fp64"):
            return self.fp32_peak
        raise ValueError(f"unknown precision {precision!r}")


@dataclass(frozen=True)
class FileSystemSpec:
    """A shared parallel file system."""

    name: str
    peak_read_bandwidth: float      # bytes/s, marketing/benchmark number
    effective_read_bandwidth: float  # bytes/s achievable by this workload
    capacity_bytes: float


@dataclass(frozen=True)
class NodeSpec:
    """One compute node."""

    name: str
    gpus: int
    gpu: GpuSpec
    nvlink: Link                     # intra-node GPU interconnect
    injection: Link                  # per-node network injection
    virtual_network_devices: int     # paper: dual-rail EDR looks like 4 devices
    local_storage_bytes: float       # node-local SSD / tmpfs usable capacity
    local_storage_read_bw: float     # bytes/s
    local_storage_write_bw: float    # bytes/s
    fs_read_bw_single_thread: float  # per-node GPFS read, 1 reader thread
    fs_read_bw_multi_thread: float   # per-node GPFS read, 8 reader threads


@dataclass(frozen=True)
class SystemSpec:
    """A full machine."""

    name: str
    nodes: int
    node: NodeSpec
    interconnect: Link               # inter-node link for collective models
    filesystem: FileSystemSpec

    @property
    def total_gpus(self) -> int:
        return self.nodes * self.node.gpus


V100 = GpuSpec(
    name="V100",
    fp32_peak=15.7e12,
    fp16_peak=125.0e12,
    mem_bandwidth=900.0e9,
    mem_bytes=16.0e9,
)

P100 = GpuSpec(
    name="P100",
    fp32_peak=9.5e12,
    fp16_peak=18.7e12,  # P100 FP16 is 2x FP32 (no Tensor Cores)
    mem_bandwidth=732.0e9,
    mem_bytes=16.0e9,
)

_SUMMIT_NODE = NodeSpec(
    name="AC922",
    gpus=6,
    gpu=V100,
    nvlink=Link(alpha=3.0e-6, bandwidth=150.0e9),
    injection=Link(alpha=1.0e-6, bandwidth=25.0e9),  # dual-rail EDR
    virtual_network_devices=4,
    local_storage_bytes=800.0e9,  # burst-buffer half of the 1.6 TB NVMe
    local_storage_read_bw=6.0e9,
    local_storage_write_bw=2.1e9,
    fs_read_bw_single_thread=1.79e9,   # measured, Section V-A1
    fs_read_bw_multi_thread=11.98e9,   # measured with 8 threads, 6.7x
)

SUMMIT = SystemSpec(
    name="Summit",
    nodes=4608,
    node=_SUMMIT_NODE,
    interconnect=Link(alpha=1.5e-6, bandwidth=6.25e9),  # per virtual IB device
    filesystem=FileSystemSpec(
        name="Spectrum Scale (GPFS)",
        peak_read_bandwidth=2.5e12,       # design target ("twice the target")
        effective_read_bandwidth=100.0e9,  # achievable for this read pattern
        capacity_bytes=3.0e15,
    ),
)

_DAINT_NODE = NodeSpec(
    name="XC50",
    gpus=1,
    gpu=P100,
    nvlink=Link(alpha=3.0e-6, bandwidth=16.0e9),  # PCIe gen3 x16 (32 GB/s bidir)
    injection=Link(alpha=1.2e-6, bandwidth=10.2e9),  # Aries injection
    virtual_network_devices=1,
    local_storage_bytes=32.0e9,   # tmpfs slice of 64 GB DRAM
    local_storage_read_bw=40.0e9,
    local_storage_write_bw=20.0e9,
    fs_read_bw_single_thread=1.0e9,
    fs_read_bw_multi_thread=5.0e9,
)

PIZ_DAINT = SystemSpec(
    name="Piz Daint",
    nodes=5320,
    node=_DAINT_NODE,
    interconnect=Link(alpha=1.3e-6, bandwidth=10.2e9),
    filesystem=FileSystemSpec(
        name="Lustre",
        peak_read_bandwidth=744.0e9,
        effective_read_bandwidth=112.0e9,  # the limit the paper hit (Fig. 5)
        capacity_bytes=28.0e15,
    ),
)
