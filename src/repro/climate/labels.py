"""Three-class segmentation labels (BG / TC / AR) and class statistics.

The paper's classes and their approximate frequencies (Section V-B1):
background ~98.2%, atmospheric river ~1.7%, tropical cyclone <0.1%.  TC
pixels take precedence over AR pixels where masks overlap.
"""
from __future__ import annotations

import numpy as np

from .floodfill import river_mask
from .grid import Grid
from .synthesis import ClimateSnapshot
from .teca import TecaConfig, cyclone_mask, detect_cyclones

__all__ = [
    "CLASS_BG",
    "CLASS_TC",
    "CLASS_AR",
    "NUM_CLASSES",
    "CLASS_NAMES",
    "PAPER_CLASS_FREQUENCIES",
    "make_labels",
    "class_frequencies",
]

CLASS_BG = 0
CLASS_TC = 1
CLASS_AR = 2
NUM_CLASSES = 3
CLASS_NAMES = ("BG", "TC", "AR")

#: Approximate pixel frequencies reported in Section V-B1.
PAPER_CLASS_FREQUENCIES = {"BG": 0.982, "AR": 0.017, "TC": 0.001}


def make_labels(
    snapshot: ClimateSnapshot,
    teca_config: TecaConfig | None = None,
) -> np.ndarray:
    """Run the heuristic labeling pipeline on a snapshot -> (H, W) int8.

    Mirrors the paper's ground-truth production: TECA for TCs, then an
    IWV floodfill for ARs on the remaining pixels.
    """
    fields, grid = snapshot.fields, snapshot.grid
    candidates = detect_cyclones(fields, grid, teca_config)
    tc = cyclone_mask(fields, grid, candidates)
    ar = river_mask(fields, grid, exclude=tc)
    labels = np.zeros(grid.shape, dtype=np.int8)
    labels[tc] = CLASS_TC
    labels[ar] = CLASS_AR
    return labels


def class_frequencies(labels: np.ndarray, num_classes: int = NUM_CLASSES) -> np.ndarray:
    """Fraction of pixels per class over one or more label maps."""
    flat = np.asarray(labels).ravel()
    counts = np.bincount(flat, minlength=num_classes).astype(np.float64)
    return counts / max(flat.size, 1)
