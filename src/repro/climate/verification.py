"""Object-based forecast verification: matching predicted storms to truth.

Pixel IoU (Section VII-D) measures mask quality; climate scientists also ask
the *object-level* question — did we find each storm? — scored with the
standard contingency metrics:

* **POD** (probability of detection) = hits / (hits + misses),
* **FAR** (false-alarm ratio) = false alarms / (hits + false alarms).

Predicted and labeled masks are decomposed into connected components
(periodic in longitude) and matched greedily by IoU overlap.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .floodfill import connected_components_periodic
from .grid import Grid

__all__ = ["MatchResult", "match_objects", "detection_scores"]


@dataclass(frozen=True)
class MatchResult:
    """Object-level contingency counts plus the matched pairs."""

    hits: int
    misses: int
    false_alarms: int
    pairs: tuple  # ((pred_id, true_id, iou), ...)

    @property
    def pod(self) -> float:
        denom = self.hits + self.misses
        return self.hits / denom if denom else float("nan")

    @property
    def far(self) -> float:
        denom = self.hits + self.false_alarms
        return self.false_alarms / denom if denom else float("nan")


def _component_masks(mask: np.ndarray) -> list[np.ndarray]:
    labeled, count = connected_components_periodic(mask.astype(bool))
    return [(labeled == c) for c in range(1, count + 1)]


def match_objects(pred_mask: np.ndarray, true_mask: np.ndarray,
                  min_iou: float = 0.1) -> MatchResult:
    """Greedy IoU matching of predicted to labeled connected components."""
    if pred_mask.shape != true_mask.shape:
        raise ValueError(f"shape mismatch {pred_mask.shape} vs {true_mask.shape}")
    if not 0.0 < min_iou <= 1.0:
        raise ValueError("min_iou must be in (0, 1]")
    preds = _component_masks(pred_mask)
    trues = _component_masks(true_mask)
    candidates = []
    for pi, p in enumerate(preds):
        for ti, t in enumerate(trues):
            inter = np.logical_and(p, t).sum()
            if inter == 0:
                continue
            union = np.logical_or(p, t).sum()
            iou = inter / union
            if iou >= min_iou:
                candidates.append((iou, pi, ti))
    candidates.sort(reverse=True)
    used_p: set[int] = set()
    used_t: set[int] = set()
    pairs = []
    for iou, pi, ti in candidates:
        if pi in used_p or ti in used_t:
            continue
        used_p.add(pi)
        used_t.add(ti)
        pairs.append((pi, ti, float(iou)))
    hits = len(pairs)
    return MatchResult(
        hits=hits,
        misses=len(trues) - hits,
        false_alarms=len(preds) - hits,
        pairs=tuple(pairs),
    )


def detection_scores(
    pred_labels: np.ndarray,
    true_labels: np.ndarray,
    class_id: int,
    min_iou: float = 0.1,
) -> MatchResult:
    """Object-level scores for one class over a batch of label maps.

    ``pred_labels`` / ``true_labels`` are (N, H, W) or (H, W) class-id maps;
    counts accumulate over the batch.
    """
    pred_labels = np.asarray(pred_labels)
    true_labels = np.asarray(true_labels)
    if pred_labels.shape != true_labels.shape:
        raise ValueError("prediction/label shape mismatch")
    if pred_labels.ndim == 2:
        pred_labels = pred_labels[None]
        true_labels = true_labels[None]
    elif pred_labels.ndim != 3:
        raise ValueError("label maps must be (H, W) or (N, H, W)")
    hits = misses = fas = 0
    pairs: list = []
    for p, t in zip(pred_labels, true_labels):
        res = match_objects(p == class_id, t == class_id, min_iou=min_iou)
        hits += res.hits
        misses += res.misses
        fas += res.false_alarms
        pairs.extend(res.pairs)
    return MatchResult(hits=hits, misses=misses, false_alarms=fas,
                       pairs=tuple(pairs))
