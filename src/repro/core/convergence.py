"""Convergence-at-scale experiments (Figure 6).

Figure 6 plots *training loss against wall time* for several concurrencies
and precisions.  Two ingredients produce it here:

* a real loss trajectory from training a (scaled-down) network with the
  target optimizer settings — loss vs *step* is a property of the algorithm
  (batch size, LR, LARC, lag), not of the machine;
* the performance model's step time for the simulated configuration
  (architecture, #GPUs, precision, lag) — mapping steps to wall time.

This separation is exactly why FP16 curves in the paper reach a given loss
in less time than FP32 (same trajectory, faster steps) and why lag-0 and
lag-1 DeepLab curves nearly coincide (Section VII-C).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ConvergenceCurve", "wall_clock_curve", "loss_trajectory_summary"]


@dataclass
class ConvergenceCurve:
    """One Figure-6 series."""

    label: str
    times_s: np.ndarray     # wall time at each step
    losses: np.ndarray      # training loss at each step
    gpus: int
    precision: str
    lag: int

    def moving_average(self, window: int = 10) -> np.ndarray:
        """The paper smooths with a 10-step moving average."""
        if window < 1:
            raise ValueError("window must be >= 1")
        kernel = np.ones(window) / window
        return np.convolve(self.losses, kernel, mode="valid")

    def time_to_loss(self, target: float) -> float | None:
        """First wall-clock time at which the smoothed loss <= target."""
        smooth = self.moving_average(min(10, len(self.losses)))
        idx = np.nonzero(smooth <= target)[0]
        if idx.size == 0:
            return None
        return float(self.times_s[idx[0]])


def wall_clock_curve(
    losses: list[float] | np.ndarray,
    architecture: str,
    gpus: int,
    precision: str,
    lag: int = 0,
) -> ConvergenceCurve:
    """Attach modeled step times to a measured loss trajectory."""
    from ..perf.scaling import step_time_model  # local import: perf uses core

    step_time = step_time_model(architecture, gpus, precision, lag)
    losses = np.asarray(losses, dtype=np.float64)
    times = step_time * np.arange(1, len(losses) + 1)
    name = f"{architecture} {precision} #GPUs={gpus} lag={lag}"
    return ConvergenceCurve(name, times, losses, gpus, precision, lag)


#: Share of the series averaged as its head and as its tail.
TAIL_FRAC = 0.2


def loss_trajectory_summary(losses: np.ndarray) -> dict:
    """Simple convergence diagnostics for a loss series."""
    losses = np.asarray(losses, dtype=np.float64)
    n = len(losses)
    if n < 4:
        raise ValueError("need at least 4 steps")
    tail = losses[int(n * (1 - TAIL_FRAC)):]
    head = losses[: max(int(n * TAIL_FRAC), 2)]
    return {
        "initial": float(head.mean()),
        "final": float(tail.mean()),
        "reduction": float(head.mean() - tail.mean()),
        "monotone_fraction": float(np.mean(np.diff(losses) <= 0)),
        "converging": bool(tail.mean() < head.mean()),
    }
