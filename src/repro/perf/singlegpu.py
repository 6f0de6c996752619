"""Single-GPU performance table (Figure 2).

For each (network, GPU, precision) the paper reports the operation count
(TF/sample), training rate (samples/s), sustained performance (TF/s) and
percent of peak.  We regenerate the table from the traced kernel inventory
plus the roofline time model; batch sizes follow the paper (1 for FP32, 2
for FP16, whose lower footprint allows two images per GPU).
"""
from __future__ import annotations

from dataclasses import dataclass

from ..core.flops import paper_graph
from ..hpc.specs import P100, V100, GpuSpec
from .kernels import KernelTimeModel

__all__ = ["PAPER_FIG2", "SingleGpuPoint", "single_gpu_performance", "figure2_table"]

#: Figure 2 rows: (network, gpu, precision) -> (TF/sample, samples/s, TF/s, %peak)
PAPER_FIG2 = {
    ("deeplabv3+", "V100", "fp16"): (14.41, 2.67, 38.45, 31.0),
    ("deeplabv3+", "V100", "fp32"): (14.41, 0.87, 12.53, 80.0),
    ("tiramisu", "V100", "fp16"): (4.188, 5.00, 20.93, 17.0),
    ("tiramisu", "V100", "fp32"): (4.188, 1.91, 8.00, 51.0),
    ("tiramisu_4ch", "P100", "fp32"): (3.703, 1.20, 4.44, 48.0),
}


@dataclass
class SingleGpuPoint:
    """One row of the Figure 2 table."""

    network: str
    gpu: str
    precision: str
    batch: int
    tf_per_sample: float
    samples_per_second: float
    sustained_tf: float
    pct_peak: float
    paper: tuple[float, float, float, float] | None = None


def single_gpu_performance(
    network: str,
    gpu: GpuSpec,
    precision: str,
) -> SingleGpuPoint:
    """Model one Figure 2 configuration at the paper's per-GPU batch."""
    batch = 2 if precision == "fp16" else 1
    analysis, _ = paper_graph(network, batch, precision)
    step_time = KernelTimeModel(gpu, precision).step_time(analysis)
    rate = analysis.batch / step_time
    # Training FLOP/s: counted work / modeled time.
    sustained = analysis.total_flops / step_time
    return SingleGpuPoint(
        network=network,
        gpu=gpu.name,
        precision=precision,
        batch=batch,
        tf_per_sample=analysis.flops_per_sample() / 1e12,
        samples_per_second=rate,
        sustained_tf=sustained / 1e12,
        pct_peak=sustained / gpu.peak(precision) * 100.0,
        paper=PAPER_FIG2.get((network, gpu.name, precision)),
    )


def figure2_table() -> list[SingleGpuPoint]:
    """All five rows of Figure 2."""
    return [
        single_gpu_performance("deeplabv3+", V100, "fp16"),
        single_gpu_performance("deeplabv3+", V100, "fp32"),
        single_gpu_performance("tiramisu", V100, "fp16"),
        single_gpu_performance("tiramisu", V100, "fp32"),
        single_gpu_performance("tiramisu_4ch", P100, "fp32"),
    ]
