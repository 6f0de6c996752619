"""Class-weighting strategies for the segmentation loss (Section V-B1).

The class imbalance (98.2% BG / 1.7% AR / <0.1% TC) lets an unweighted
network win by predicting background everywhere.  The paper's fixes, in the
order they tried them:

* **inverse frequency** — equalizes each class's total loss contribution,
  but the enormous TC weight produced "numerical stability issues,
  especially with FP16 training";
* **inverse square root of frequency** — the moderate weighting they
  shipped: stable in FP16 while still forcing the minority classes to be
  learned.  Under it, a TC false negative costs roughly
  sqrt(f_BG / f_TC) ~ 37x more than a false positive — the overprediction
  the paper points out around Figure 7b.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "uniform_class_weights",
    "inverse_frequency_weights",
    "inverse_sqrt_frequency_weights",
    "class_weights",
    "pixel_weight_map",
    "tc_penalty_ratio",
]

_STRATEGIES = ("none", "inverse", "inverse_sqrt")


def uniform_class_weights(frequencies: np.ndarray) -> np.ndarray:
    """All-ones weights (the unweighted baseline)."""
    return np.ones_like(np.asarray(frequencies, dtype=np.float64))


#: Frequencies are floored here so an absent class gets a finite weight.
FREQUENCY_FLOOR = 1e-8


def inverse_frequency_weights(frequencies: np.ndarray) -> np.ndarray:
    """w_k = 1 / f_k (normalized so the background weight is ~1)."""
    f = np.maximum(np.asarray(frequencies, dtype=np.float64), FREQUENCY_FLOOR)
    w = 1.0 / f
    return w / w[np.argmax(f)]  # most-frequent class (BG) weighs 1


def inverse_sqrt_frequency_weights(frequencies: np.ndarray) -> np.ndarray:
    """w_k = 1 / sqrt(f_k), the paper's production weighting."""
    f = np.maximum(np.asarray(frequencies, dtype=np.float64), FREQUENCY_FLOOR)
    w = 1.0 / np.sqrt(f)
    return w / w[np.argmax(f)]  # most-frequent class (BG) weighs 1


def class_weights(frequencies: np.ndarray, strategy: str) -> np.ndarray:
    """Dispatch on strategy name ('none' | 'inverse' | 'inverse_sqrt')."""
    if strategy not in _STRATEGIES:
        raise ValueError(f"unknown weighting strategy {strategy!r}; "
                         f"expected one of {_STRATEGIES}")
    if strategy == "none":
        return uniform_class_weights(frequencies)
    if strategy == "inverse":
        return inverse_frequency_weights(frequencies)
    return inverse_sqrt_frequency_weights(frequencies)


def pixel_weight_map(labels: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per-pixel weight plane from per-class weights.

    Computed by the input pipeline (CPU) and shipped to the GPU with the
    image, exactly as in the paper.
    """
    labels = np.asarray(labels)
    weights = np.asarray(weights, dtype=np.float32)
    if labels.min() < 0 or labels.max() >= len(weights):
        raise ValueError("labels out of range for the weight table")
    return weights[labels]


#: Class ids of the label maps (:mod:`repro.climate.labels`).
BG_CLASS = 0
TC_CLASS = 1


def tc_penalty_ratio(weights: np.ndarray) -> float:
    """False-negative / false-positive penalty ratio for the TC class.

    A TC false negative is weighted by w_TC (the missed pixel is labeled TC);
    a false positive by w_BG.  The paper quotes ~37x for their frequencies
    under inverse-sqrt weighting.
    """
    return float(weights[TC_CLASS] / weights[BG_CLASS])

