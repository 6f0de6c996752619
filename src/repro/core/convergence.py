"""Loss-trajectory diagnostics for the convergence experiments (Figure 6).

Figure 6 plots training loss against wall time.  Loss against *step* is a
property of the algorithm (batch size, LR, LARC, lag), not of the machine,
so the trained Figure 6 rows (:mod:`repro.perf.trained`) summarize a real
scaled-down trajectory here, and the wall-time axis comes from the
performance model's step time (:func:`repro.perf.scaling.step_time_model`).
"""
from __future__ import annotations

import numpy as np

__all__ = ["loss_trajectory_summary"]


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
