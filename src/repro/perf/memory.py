"""GPU memory-capacity model: why FP16 trains batch 2 and FP32 batch 1.

Section VII-A: "a single image per GPU is processed per training step when
FP32 precision is used, while for FP16, the lower memory footprint enables
batches of two images per GPU."  The model adds up what training must keep
resident on the 16 GB V100:

* forward activations (stored for backward) — dominant, counted exactly by
  the symbolic trace (:attr:`GraphAnalysis.total_activation_bytes`);
* working weights (+ FP32 masters in mixed precision);
* gradients and optimizer state (momentum);
* a cuDNN workspace / framework-overhead reserve.
"""
from __future__ import annotations

from dataclasses import dataclass

from ..framework.module import Module
from ..hpc.specs import GpuSpec, V100

__all__ = ["MemoryBudget", "training_memory", "max_batch"]

#: cuDNN workspace + allocator/framework overhead reserve (bytes).
DEFAULT_RESERVE = 1.5e9

#: Fraction of traced forward intermediates simultaneously live.  The trace
#: counts every op output, but frameworks reuse buffers (in-place ReLU/bias,
#: recomputed cheap ops, freed branches); 0.7 is a typical liveness for
#: TF-era graph executors and calibrates the model to the paper's observed
#: batch limits (FP32: 1, FP16: 2 on the 16 GB V100).
DEFAULT_LIVENESS = 0.7


@dataclass(frozen=True)
class MemoryBudget:
    """Per-component device-memory demand for one training configuration."""

    activations: float
    weights: float
    master_weights: float
    gradients: float
    optimizer_state: float
    reserve: float

    @property
    def total(self) -> float:
        return (self.activations + self.weights + self.master_weights
                + self.gradients + self.optimizer_state + self.reserve)

    def fits(self, gpu: GpuSpec) -> bool:
        return self.total <= gpu.mem_bytes


def training_memory(
    model: Module,
    input_shape: tuple[int, int, int],
    batch: int,
    precision: str = "fp32",
    liveness: float = DEFAULT_LIVENESS,
) -> MemoryBudget:
    """Memory demand of one training step at the given batch/precision,
    with one FP32 momentum buffer per parameter."""
    if not 0.0 < liveness <= 1.0:
        raise ValueError("liveness must be in (0, 1]")
    analysis = model.analyze(input_shape, batch=batch, precision=precision,
                             include_backward=False)
    params = model.num_parameters()
    itemsize = 2 if precision == "fp16" else 4
    weights = params * itemsize
    master = params * 4 if precision == "fp16" else 0.0
    grads = params * 4  # gradients kept FP32 for the update
    opt = params * 4
    return MemoryBudget(
        activations=float(analysis.total_activation_bytes) * liveness,
        weights=float(weights),
        master_weights=float(master),
        gradients=float(grads),
        optimizer_state=float(opt),
        reserve=float(DEFAULT_RESERVE),
    )


def max_batch(
    model: Module,
    input_shape: tuple[int, int, int],
    precision: str,
    gpu: GpuSpec = V100,
    limit: int = 16,
) -> int:
    """Largest batch whose training footprint fits the GPU (0 if none)."""
    best = 0
    for batch in range(1, limit + 1):
        budget = training_memory(model, input_shape, batch, precision)
        if budget.fits(gpu):
            best = batch
        else:
            break
    return best
