"""Weak-scaling performance model (Figures 4 and 5).

Step-time decomposition for synchronous data-parallel training at scale:

    t(n) = max(t_gpu, t_input(n)) + t_comm_exposed(n) + t_control(n)
           + t_straggler(n)

* ``t_gpu`` — single-GPU step time from the kernel roofline model;
* ``t_input`` — input-pipeline time; ~0 with node-local staging, but
  reading from the global file system caps aggregate bandwidth and adds
  variability once demand saturates it (Figure 5);
* ``t_comm_exposed`` — the all-reduce time not hidden behind backprop.
  Gradient lag (Section V-B4) overlaps almost all of it; lag-0 exposes the
  top layers' reductions;
* ``t_control`` — Horovod control-plane cost (hierarchical tree by
  default; the centralized original can be selected to see it melt down);
* ``t_straggler`` — synchronous SGD pays the *max* over n ranks of the
  per-rank jitter; for Gaussian jitter the expected max grows like
  sigma * sqrt(2 ln n), the dominant smooth efficiency loss at scale.

Parallel efficiency is t(1)/t(n); images/s is n * batch / t(n).
"""
from __future__ import annotations

from dataclasses import dataclass
from math import log, sqrt

from ..climate.stats import PAPER_DATASET
from ..comm.costmodel import (
    centralized_control_time,
    hierarchical_allreduce_time,
    hierarchical_control_time,
    tree_allreduce_time,
)
from ..core.flops import paper_graph
from ..hpc.specs import PIZ_DAINT, SUMMIT, SystemSpec
from .singlegpu import single_gpu_performance

__all__ = [
    "ScalingPoint",
    "ScalingModel",
    "weak_scaling_curve",
    "step_time_model",
]

#: Tensors negotiated per step ("over a hundred", Section V-A3).
TENSORS_PER_STEP = 110

#: Share of an epoch's samples the per-epoch validation pass reads.
VALIDATION_FRACTION = 0.125


@dataclass
class ScalingPoint:
    """One point of a weak-scaling curve."""

    gpus: int
    step_time_s: float
    images_per_second: float
    sustained_pflops: float
    efficiency: float
    input_limited: bool = False


@dataclass
class ScalingModel:
    """Calibratable step-time model for one (network, system, precision)."""

    network: str
    system: SystemSpec
    precision: str
    lag: int = 1
    control_plane: str = "hierarchical"
    staging: str = "local"          # "local" (staged) or "global" (direct FS)
    straggler_sigma: float = 0.02   # per-rank jitter fraction of t_gpu
    exposure_lag0: float = 0.35     # unhidden fraction of all-reduce, lag 0
    exposure_lag1: float = 0.10     # unhidden fraction with gradient lag
    fs_penalty_slope: float = 0.15  # variability penalty per unit saturation

    def __post_init__(self):
        if self.staging not in ("local", "global"):
            raise ValueError(f"unknown staging {self.staging!r}")
        point = single_gpu_performance(self.network, self.system.node.gpu,
                                       self.precision)
        self._single = point
        self.batch = point.batch
        self.t_gpu = point.batch / point.samples_per_second
        self.tf_per_sample = point.tf_per_sample
        # Gradient volume: parameters at the working precision.
        itemsize = 2 if self.precision == "fp16" else 4
        _, parameters = paper_graph(self.network, point.batch, self.precision)
        self._grad_bytes = parameters * itemsize
        # The pipeline reads the full 16-channel file even when the network
        # consumes a channel subset (channel selection happens after decode),
        # so input demand is always the full sample size.
        self.sample_bytes = float(PAPER_DATASET.sample_bytes)

    # -- components ---------------------------------------------------------

    def comm_time(self, gpus: int) -> float:
        if gpus <= 1:
            return 0.0
        node = self.system.node
        if node.gpus > 1:
            nodes = max(gpus // node.gpus, 1)
            return hierarchical_allreduce_time(
                nodes, self._grad_bytes, node.nvlink, self.system.interconnect,
                gpus_per_node=node.gpus,
                parallel_devices=node.virtual_network_devices,
            )
        return tree_allreduce_time(gpus, self._grad_bytes, self.system.interconnect)

    def exposed_comm_time(self, gpus: int) -> float:
        exposure = self.exposure_lag1 if self.lag >= 1 else self.exposure_lag0
        return exposure * self.comm_time(gpus)

    def control_time(self, gpus: int) -> float:
        if gpus <= 1:
            return 0.0
        if self.control_plane == "centralized":
            return centralized_control_time(gpus, TENSORS_PER_STEP)
        return hierarchical_control_time(gpus, TENSORS_PER_STEP)

    def straggler_time(self, gpus: int) -> float:
        if gpus <= 1:
            return 0.0
        return self.straggler_sigma * self.t_gpu * sqrt(2.0 * log(gpus))

    def input_time(self, gpus: int) -> tuple[float, bool]:
        """(input-limited step floor, is_limited)."""
        if self.staging == "local":
            # Node-local SSD/tmpfs sustains the demand with large margin.
            return 0.0, False
        fs_bw = self.system.filesystem.effective_read_bandwidth
        t_needed = gpus * self.batch * self.sample_bytes / fs_bw
        return t_needed, t_needed > self.t_gpu

    # -- assembly -------------------------------------------------------------

    def step_time(self, gpus: int) -> tuple[float, bool]:
        # Compute-bound path: GPU work plus the max-over-ranks straggler
        # penalty synchronous SGD pays every step.
        t_compute = self.t_gpu + self.straggler_time(gpus)
        # Input-bound path: a saturated FS both caps the rate and adds
        # long-tail variability (Figure 5's error bars).
        t_in, _ = self.input_time(gpus)
        if t_in > 0:
            demand = gpus * self.batch * self.sample_bytes / max(t_in, self.t_gpu)
            sat = demand / self.system.filesystem.effective_read_bandwidth
            t_in *= 1.0 + self.fs_penalty_slope * max(sat - 0.8, 0.0)
        limited = t_in > t_compute
        base = max(t_compute, t_in)
        t = base + self.exposed_comm_time(gpus) + self.control_time(gpus)
        return t, limited

    def point(self, gpus: int) -> ScalingPoint:
        t, limited = self.step_time(gpus)
        images = gpus * self.batch / t
        return ScalingPoint(
            gpus=gpus,
            step_time_s=t,
            images_per_second=images,
            sustained_pflops=images * self.tf_per_sample / 1e3,
            efficiency=self.t_gpu / t,
            input_limited=limited,
        )

    def epoch_time(self, gpus: int,
                   samples_per_gpu: int = 250) -> tuple[float, float]:
        """(epoch seconds, validation overhead fraction) at a GPU count.

        Section VI: a validation pass runs after every epoch; the staging
        layout keeps per-GPU epoch sizes constant (250 samples per GPU, from
        the 1500-per-node figure), so the overhead stays "negligible once
        amortized over the steps".  Validation is forward-only, modeled at
        one third of a training step.
        """
        if samples_per_gpu < self.batch:
            raise ValueError("epoch smaller than one batch")
        step_t, _ = self.step_time(gpus)
        train_steps = samples_per_gpu // self.batch
        t_train = train_steps * step_t
        val_steps = max(
            int(VALIDATION_FRACTION * samples_per_gpu) // self.batch, 1)
        t_val = val_steps * step_t / 3.0
        return t_train + t_val, t_val / (t_train + t_val)

    def strong_scaling_point(self, gpus: int, global_batch: int) -> ScalingPoint:
        """Constant global batch split across workers (Section III).

        The paper notes strong scaling "is generally only of interest when
        effective hyperparameters cannot be found for a larger global batch":
        per-step compute shrinks with 1/gpus while the gradient exchange does
        not, so efficiency decays much faster than in weak scaling — which
        this model makes quantitative.
        """
        if global_batch < gpus:
            raise ValueError(
                f"global batch {global_batch} smaller than {gpus} workers"
            )
        local_batch = global_batch / gpus
        t_compute = self.t_gpu * local_batch / self.batch
        t_compute += self.straggler_time(gpus) * local_batch / self.batch
        t = t_compute + self.exposed_comm_time(gpus) + self.control_time(gpus)
        images = global_batch / t
        t_ref = self.t_gpu * (global_batch / self.batch)  # 1 worker, full batch
        return ScalingPoint(
            gpus=gpus,
            step_time_s=t,
            images_per_second=images,
            sustained_pflops=images * self.tf_per_sample / 1e3,
            efficiency=t_ref / (gpus * t),
            input_limited=False,
        )


def _default_counts(system: SystemSpec) -> list[int]:
    g = system.node.gpus
    counts = [1]
    n = g
    limit = system.total_gpus
    while n <= limit:
        counts.append(n)
        n *= 2
    if counts[-1] != limit:
        counts.append(limit)
    return counts


def weak_scaling_curve(
    network: str,
    system_name: str = "summit",
    precision: str = "fp16",
    lag: int = 1,
    gpu_counts: list[int] | None = None,
    **model_kwargs,
) -> list[ScalingPoint]:
    """Compute a Figure-4/5 series (node-local staging)."""
    system = {"summit": SUMMIT, "piz_daint": PIZ_DAINT}[system_name]
    model = _make_model(network, system, precision, lag, **model_kwargs)
    counts = gpu_counts or _default_counts(system)
    return [model.point(n) for n in counts]


def _make_model(network: str, system: SystemSpec, precision: str, lag: int,
                **kwargs) -> ScalingModel:
    """A node-local-staging model with the system's calibrated jitter."""
    defaults = dict(straggler_sigma=0.02)
    if system is PIZ_DAINT:
        # Piz Daint showed more per-step jitter (single GPU per node, no
        # NVLink islands to absorb it); calibrated to the 79% anchor.
        defaults = dict(straggler_sigma=0.045)
    defaults.update(kwargs)
    return ScalingModel(network=network, system=system, precision=precision,
                        lag=lag, **defaults)


def step_time_model(architecture: str, gpus: int, precision: str,
                    lag: int = 0, system_name: str | None = None) -> float:
    """Step time for the convergence wall-clock mapping (Figure 6)."""
    if system_name is None:
        system_name = "piz_daint" if architecture == "tiramisu_4ch" else "summit"
    system = {"summit": SUMMIT, "piz_daint": PIZ_DAINT}[system_name]
    model = _make_model(architecture, system, precision, lag)
    t, _ = model.step_time(max(gpus, 1))
    return t
