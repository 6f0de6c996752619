"""Per-category kernel performance model (roofline with efficiency caps).

The paper groups the thousands of per-step kernels into eight categories
(Figure 3) and reports each category's fraction of peak math and peak
memory bandwidth.  We model a category's execution time with a capped
roofline:

    time = max( flops / (peak_math * eff_math),  bytes / (peak_mem * eff_mem) )

The efficiency caps are the *achievable* fractions of peak for that kernel
class — constants calibrated against the paper's own measured category
efficiencies (Figures 8 and 9), standing in for what CUDA profiling tools
measure on real hardware.  With these caps and our traced FLOP/byte
inventories, the model reproduces which categories dominate, why FP16
Tiramisu convolutions go memory-bound, and the Figure 2 training rates.
"""
from __future__ import annotations

from dataclasses import dataclass

from ..framework.graph import CATEGORIES, GraphAnalysis
from ..hpc.specs import GpuSpec

__all__ = ["CategoryEfficiency", "EFFICIENCY_TABLE", "CategoryTime", "KernelTimeModel"]


@dataclass(frozen=True)
class CategoryEfficiency:
    """Achievable fraction of peak math / memory bandwidth."""

    math: float
    memory: float


#: Calibrated from the paper's measured category efficiencies (Figs 8-9):
#: FP32 convolutions reach ~52-103% of math peak, FP16 (Tensor Core)
#: convolutions only ~21-52% because small filter counts underfeed the
#: Tensor Cores; point-wise kernels and copies run at 45-80% of DRAM peak.
EFFICIENCY_TABLE: dict[tuple[str, str], CategoryEfficiency] = {
    ("conv_fwd", "fp32"): CategoryEfficiency(math=0.76, memory=0.65),
    ("conv_bwd", "fp32"): CategoryEfficiency(math=0.96, memory=0.65),
    ("conv_fwd", "fp16"): CategoryEfficiency(math=0.50, memory=0.95),
    ("conv_bwd", "fp16"): CategoryEfficiency(math=0.50, memory=0.70),
    ("pointwise_fwd", "fp32"): CategoryEfficiency(math=0.02, memory=0.75),
    ("pointwise_fwd", "fp16"): CategoryEfficiency(math=0.02, memory=0.60),
    ("pointwise_bwd", "fp32"): CategoryEfficiency(math=0.02, memory=0.55),
    ("pointwise_bwd", "fp16"): CategoryEfficiency(math=0.02, memory=0.40),
    ("optimizer", "fp32"): CategoryEfficiency(math=0.01, memory=0.30),
    ("optimizer", "fp16"): CategoryEfficiency(math=0.01, memory=0.33),
    ("copy", "fp32"): CategoryEfficiency(math=0.01, memory=0.67),
    ("copy", "fp16"): CategoryEfficiency(math=0.01, memory=0.50),
    ("allreduce", "fp32"): CategoryEfficiency(math=0.01, memory=0.02),
    ("allreduce", "fp16"): CategoryEfficiency(math=0.01, memory=0.02),
    ("cast", "fp32"): CategoryEfficiency(math=0.01, memory=0.25),
    ("cast", "fp16"): CategoryEfficiency(math=0.01, memory=0.25),
}


#: Math-efficiency multipliers by kernel-name prefix (see _math_modifier).
_MATH_MODIFIERS: dict[str, dict[str, float]] = {
    "fp32": {"conv5x5": 0.78, "deconv": 0.80},
    "fp16": {"conv5x5": 0.60, "deconv": 0.70},
}

#: Fixed launch cost charged per kernel, seconds.
LAUNCH_OVERHEAD_S = 2.0e-6


@dataclass
class CategoryTime:
    """Modeled execution of one kernel category."""

    category: str
    kernels: int
    time_s: float
    flops: int
    bytes: int
    pct_math_peak: float
    pct_mem_peak: float


class KernelTimeModel:
    """Maps a traced kernel inventory onto a GPU's roofline."""

    def __init__(self, gpu: GpuSpec, precision: str = "fp32"):
        if precision not in ("fp32", "fp16"):
            raise ValueError(f"unsupported precision {precision!r}")
        self.gpu = gpu
        self.precision = precision

    def _efficiency(self, category: str) -> CategoryEfficiency:
        key = (category, self.precision)
        if key not in EFFICIENCY_TABLE:
            raise KeyError(f"no efficiency entry for {key}")
        return EFFICIENCY_TABLE[key]

    def _math_modifier(self, name: str) -> float:
        """Kernel-geometry derating of the math efficiency.

        Wide 5x5 filters and strided deconvolutions run notably below the
        1x1/3x3 implicit-GEMM efficiency — the "small filter sizes per
        layer" penalty the paper identifies for Tiramisu (Section VII-A).
        """
        for prefix, modifier in _MATH_MODIFIERS.get(self.precision, {}).items():
            if name.startswith(prefix):
                return modifier
        return 1.0

    def category_time(self, analysis: GraphAnalysis, category: str) -> CategoryTime:
        flops = analysis.category_flops(category)
        nbytes = analysis.category_bytes(category)
        kernels = analysis.category_kernels(category)
        eff = self._efficiency(category)
        peak_math = self.gpu.peak(self.precision)
        peak_mem = self.gpu.mem_bandwidth
        t = kernels * LAUNCH_OVERHEAD_S
        for rec in analysis.records:
            if rec.category != category:
                continue
            t_math = (rec.flops / (peak_math * eff.math * self._math_modifier(rec.name))
                      if rec.flops else 0.0)
            t_mem = rec.bytes / (peak_mem * eff.memory) if rec.bytes else 0.0
            t += max(t_math, t_mem)
        return CategoryTime(
            category=category,
            kernels=kernels,
            time_s=t,
            flops=flops,
            bytes=nbytes,
            pct_math_peak=(flops / t / peak_math * 100.0) if t > 0 else 0.0,
            pct_mem_peak=(nbytes / t / peak_mem * 100.0) if t > 0 else 0.0,
        )

    def breakdown(self, analysis: GraphAnalysis) -> list[CategoryTime]:
        """Per-category times for every category present in the trace."""
        return [self.category_time(analysis, c) for c in analysis.categories()]

    def step_time(self, analysis: GraphAnalysis) -> float:
        """Total modeled GPU time for one training step (kernels serialized,
        as the paper's FP32 profiles show the GPU completely busy)."""
        return sum(ct.time_s for ct in self.breakdown(analysis))
