"""Kernel-category breakdown tables (Figures 3, 8 and 9).

For each network and precision the paper tabulates, per kernel category:
kernel count, total time (ms), math (TF), memory traffic (GB), percent of
step time, and percent of peak math/memory.  We regenerate the same table
from the traced inventory and the roofline time model, for a 4-node
(24-GPU) configuration like the paper's profiling run (the NCCL all-reduce
row is added from the gradient volume and the NVLink bandwidth).
"""
from __future__ import annotations

from dataclasses import dataclass

from ..core.flops import paper_graph
from ..framework.graph import GraphAnalysis, KernelRecord
from ..hpc.specs import V100, SUMMIT
from .kernels import CategoryTime, KernelTimeModel

__all__ = ["PAPER_CATEGORY_TIME_PCT", "BreakdownTable", "kernel_breakdown",
           "PAPER_DETAIL"]

#: Figure 3 "% Time" per category: (network, precision) -> {category: pct}.
PAPER_CATEGORY_TIME_PCT = {
    ("tiramisu", "fp32"): {
        "conv_fwd": 31.4, "pointwise_fwd": 7.9, "conv_bwd": 49.2,
        "pointwise_bwd": 0.7, "optimizer": 0.5, "copy": 5.5,
        "allreduce": 5.1, "cast": 0.0, "idle": 0.0,
    },
    ("tiramisu", "fp16"): {
        "conv_fwd": 25.3, "pointwise_fwd": 12.2, "conv_bwd": 38.3,
        "pointwise_bwd": 2.8, "optimizer": 0.7, "copy": 12.3,
        "allreduce": 5.4, "cast": 0.1, "idle": 2.9,
    },
    ("deeplabv3+", "fp32"): {
        "conv_fwd": 33.3, "pointwise_fwd": 3.2, "conv_bwd": 49.0,
        "pointwise_bwd": 0.9, "optimizer": 0.3, "copy": 8.6,
        "allreduce": 4.6, "cast": 0.0, "idle": 0.0,
    },
    ("deeplabv3+", "fp16"): {
        "conv_fwd": 18.1, "pointwise_fwd": 6.4, "conv_bwd": 36.7,
        "pointwise_bwd": 3.1, "optimizer": 0.5, "copy": 26.1,
        "allreduce": 7.2, "cast": 0.2, "idle": 1.7,
    },
}

#: Figures 8/9 absolute step totals: (network, precision) ->
#: (time_ms, math_TF, mem_GB).  FP32 is batch 1, FP16 batch 2.
PAPER_DETAIL = {
    ("tiramisu", "fp32"): (549.9, 4.19, 308.5),
    ("tiramisu", "fp16"): (417.3, 8.38, 262.1),
    ("deeplabv3+", "fp32"): (1215.9, 14.41, 220.9),
    ("deeplabv3+", "fp16"): (817.3, 28.82, 203.6),
}


@dataclass
class BreakdownTable:
    """One Figure 8/9-style table."""

    network: str
    precision: str
    batch: int
    rows: list[CategoryTime]
    total_time_s: float
    total_flops: int
    total_bytes: int

    def time_pct(self) -> dict[str, float]:
        return {r.category: 100.0 * r.time_s / self.total_time_s for r in self.rows}

    def dominant_category(self) -> str:
        return max(self.rows, key=lambda r: r.time_s).category


def _allreduce_record(parameters: int, precision: str) -> KernelRecord:
    """The NCCL intra-node all-reduce kernel row.

    Volume = gradient bytes; the systolic ring moves 2 (g-1)/g * V per GPU
    over NVLink, which bounds these kernels well below DRAM peak (the
    paper's 1-3% of memory peak).
    """
    itemsize = 2 if precision == "fp16" else 4
    grad_bytes = parameters * itemsize
    g = SUMMIT.node.gpus
    moved = int(2 * (g - 1) / g * grad_bytes)
    return KernelRecord("nccl_allreduce", "allreduce", 0, moved, count=30)


def kernel_breakdown(network: str, precision: str) -> BreakdownTable:
    """Regenerate one of the Figure 8/9 tables (a V100 of a Summit node)."""
    batch = 2 if precision == "fp16" else 1
    gpu = V100
    analysis, parameters = paper_graph(network, batch, precision)
    # Append the all-reduce kernels (present in the paper's 24-GPU profile).
    records = (*analysis.records, _allreduce_record(parameters, precision))
    analysis = GraphAnalysis(records, analysis.batch, analysis.precision)
    timer = KernelTimeModel(gpu, precision)
    rows = timer.breakdown(analysis)
    # NVLink, not DRAM, bounds the all-reduce row: recompute its time.
    nvlink_bw = SUMMIT.node.nvlink.bandwidth
    for i, row in enumerate(rows):
        if row.category == "allreduce":
            t = row.bytes / nvlink_bw
            rows[i] = CategoryTime(
                category=row.category, kernels=row.kernels, time_s=t,
                flops=row.flops, bytes=row.bytes,
                pct_math_peak=0.0,
                pct_mem_peak=row.bytes / t / gpu.mem_bandwidth * 100.0,
            )
    total_time = sum(r.time_s for r in rows)
    return BreakdownTable(
        network=network, precision=precision, batch=batch, rows=rows,
        total_time_s=total_time,
        total_flops=sum(r.flops for r in rows),
        total_bytes=sum(r.bytes for r in rows),
    )
