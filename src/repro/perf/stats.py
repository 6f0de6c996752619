"""Throughput statistics, following the paper's methodology (Section VI).

"We compute the mean number of processed samples for every step over ranks
and the median of the result over time and quote this as our sustained
throughput.  We further compute an (asymmetric) error bar based on the
central 68% confidence interval (computed from the 0.16 and 0.84
percentiles) over time."
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ThroughputStats", "central68", "sustained_throughput", "peak_throughput"]


@dataclass(frozen=True)
class ThroughputStats:
    """Sustained throughput with an asymmetric 68% CI."""

    median: float
    lo: float        # 0.16 percentile
    hi: float        # 0.84 percentile

    @property
    def err_minus(self) -> float:
        return self.median - self.lo

    @property
    def err_plus(self) -> float:
        return self.hi - self.median


def central68(values) -> ThroughputStats:
    """Median and 0.16/0.84 quantiles of ``values``; all zero when empty."""
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        return ThroughputStats(median=0.0, lo=0.0, hi=0.0)
    lo, med, hi = np.quantile(v, [0.16, 0.5, 0.84])
    return ThroughputStats(median=float(med), lo=float(lo), hi=float(hi))


def sustained_throughput(samples_per_step: np.ndarray,
                         step_times: np.ndarray) -> ThroughputStats:
    """Paper-style sustained rate from per-(step, rank) sample counts.

    Parameters
    ----------
    samples_per_step:
        (steps, ranks) samples each rank processed in each step.
    step_times:
        (steps,) wall time of each global step.
    """
    samples = np.asarray(samples_per_step, dtype=np.float64)
    times = np.asarray(step_times, dtype=np.float64)
    if samples.ndim != 2:
        raise ValueError("samples_per_step must be (steps, ranks)")
    if times.shape != (samples.shape[0],):
        raise ValueError("step_times must be (steps,)")
    if (times <= 0).any():
        raise ValueError("step times must be positive")
    # Mean over ranks per step, times rank count -> global samples per step.
    return central68(samples.mean(axis=1) * samples.shape[1] / times)


def peak_throughput(samples_per_step: np.ndarray, step_times: np.ndarray) -> float:
    """Best single-step global rate (the paper's 'peak' numbers)."""
    samples = np.asarray(samples_per_step, dtype=np.float64)
    times = np.asarray(step_times, dtype=np.float64)
    rates = samples.sum(axis=1) / times
    return float(rates.max())
