"""Large-batch learning-rate scaling rules.

The paper's Figure 6 runs scale the learning rate with concurrency
(LR=0.0001 at 384 GPUs, 0.0064 at 1536, 0.4096 at 6144 — a faster-than-
linear ramp enabled by LARC's clipping).  ``sqrt_scaled_lr`` and
``linear_scaled_lr`` are the two standard rules; ``paper_lr_for_gpus``
interpolates the paper's actual settings.
"""
from __future__ import annotations

import math

__all__ = [
    "linear_scaled_lr",
    "sqrt_scaled_lr",
    "paper_lr_for_gpus",
    "PAPER_LR_TABLE",
]

#: (GPUs, learning rate) pairs from Figure 6.
PAPER_LR_TABLE = ((384, 0.0001), (1536, 0.0064), (6144, 0.4096))


def linear_scaled_lr(base_lr: float, workers: int, base_workers: int = 1) -> float:
    """Goyal et al. linear scaling rule."""
    return base_lr * workers / base_workers


def sqrt_scaled_lr(base_lr: float, workers: int, base_workers: int = 1) -> float:
    """Square-root scaling (gentler; common with adaptive-rate optimizers)."""
    return base_lr * math.sqrt(workers / base_workers)


def paper_lr_for_gpus(gpus: int) -> float:
    """Log-log interpolation/extrapolation of the paper's LR table."""
    if gpus < 1:
        raise ValueError("gpus must be >= 1")
    table = PAPER_LR_TABLE
    if gpus <= table[0][0]:
        g0, l0 = table[0]
        g1, l1 = table[1]
    elif gpus >= table[-1][0]:
        g0, l0 = table[-2]
        g1, l1 = table[-1]
    else:
        for (g0, l0), (g1, l1) in zip(table, table[1:]):
            if g0 <= gpus <= g1:
                break
    slope = (math.log(l1) - math.log(l0)) / (math.log(g1) - math.log(g0))
    return math.exp(math.log(l0) + slope * (math.log(gpus) - math.log(g0)))
