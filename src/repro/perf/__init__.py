"""Performance models reproducing the paper's tables and figures."""
from .breakdown import BreakdownTable, kernel_breakdown
from .eventsim import TrainingRunConfig, TrainingRunResult, simulate_training_run
from .kernels import EFFICIENCY_TABLE, CategoryEfficiency, CategoryTime, KernelTimeModel
from .memory import DEFAULT_LIVENESS, MemoryBudget, max_batch, training_memory
from .report import format_table, paper_vs_measured
from .scaling import ScalingModel, ScalingPoint, step_time_model, weak_scaling_curve
from .singlegpu import SingleGpuPoint, figure2_table, single_gpu_performance
from .staging_model import Figure5Point, aggregate_demand, figure5_curves
from .stats import ThroughputStats, peak_throughput, sustained_throughput

__all__ = [
    "KernelTimeModel",
    "TrainingRunConfig",
    "TrainingRunResult",
    "simulate_training_run",
    "MemoryBudget",
    "training_memory",
    "max_batch",
    "DEFAULT_LIVENESS",
    "CategoryTime",
    "CategoryEfficiency",
    "EFFICIENCY_TABLE",
    "SingleGpuPoint",
    "single_gpu_performance",
    "figure2_table",
    "BreakdownTable",
    "kernel_breakdown",
    "ScalingModel",
    "ScalingPoint",
    "weak_scaling_curve",
    "step_time_model",
    "Figure5Point",
    "figure5_curves",
    "aggregate_demand",
    "ThroughputStats",
    "sustained_throughput",
    "peak_throughput",
    "format_table",
    "paper_vs_measured",
]
