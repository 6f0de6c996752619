"""Atmospheric-river labeling: IWV threshold + floodfill + geometry filters.

The paper's AR labels come from "a floodfill algorithm ... used to create
spatial masks of ARs" (Section III-A2, citing the ARTMIP intercomparison).
The standard ARTMIP-style recipe, reimplemented here:

1. threshold the integrated water vapor (TMQ) on its anomaly relative to a
   zonal-mean climatology (ARs are moisture *anomalies*, so a fixed global
   threshold would label the whole tropics);
2. extract connected components (periodic in longitude — components crossing
   the dateline are merged with a union-find pass);
3. keep components that are long, narrow, and reach from the subtropics into
   the mid-latitudes.
"""
from __future__ import annotations

import numpy as np
from scipy import ndimage

from .grid import Grid

__all__ = ["river_mask", "connected_components_periodic"]

# Thresholds for the AR labeler.
ANOMALY_THRESHOLD = 7.0     # kg/m^2 above the zonal background
MIN_LENGTH_DEG = 15.0       # great-circle extent requirement
MIN_ASPECT = 1.6            # length / width elongation requirement
MIN_AREA_CELLS = 12         # discard specks
MIN_REACH_LAT = 24.0        # must reach poleward of this latitude
MAX_ABS_LAT = 65.0          # ignore polar artifacts
EXCLUSION_LAT = 5.0         # deep tropics excluded (ITCZ moisture)


def connected_components_periodic(mask: np.ndarray) -> tuple[np.ndarray, int]:
    """Connected components with wraparound in the longitude (last) axis.

    scipy's ``ndimage.label`` has no periodic mode; we label normally, then
    merge labels that touch across the seam with a small union-find.
    """
    labeled, count = ndimage.label(mask)
    if count == 0:
        return labeled, 0
    parent = list(range(count + 1))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    left = labeled[:, 0]
    right = labeled[:, -1]
    for a, b in zip(left, right):
        if a and b:
            union(int(a), int(b))
    # Compact the label space.
    remap = np.zeros(count + 1, dtype=labeled.dtype)
    next_id = 0
    for lbl in range(1, count + 1):
        root = find(lbl)
        if remap[root] == 0:
            next_id += 1
            remap[root] = next_id
        remap[lbl] = remap[root]
    return remap[labeled], next_id


def _zonal_climatology(tmq: np.ndarray, grid: Grid, sigma_deg: float = 8.0) -> np.ndarray:
    """Smooth zonal-mean moisture background, broadcast over longitude."""
    zonal = np.median(tmq, axis=1)
    sigma = max(sigma_deg / grid.deg_per_cell_lat, 1.0)
    zonal = ndimage.gaussian_filter1d(zonal, sigma=sigma, mode="nearest")
    return np.broadcast_to(zonal[:, None], tmq.shape)


def _component_geometry(rows: np.ndarray, cols: np.ndarray, grid: Grid):
    """(length_deg, width_deg, max_abs_lat, min_abs_lat) of one component.

    Longitudes are unwrapped around the component's circular mean so that
    dateline-crossing ARs measure correctly.
    """
    lats = grid.lats[rows]
    lons = grid.lons[cols]
    ang = np.deg2rad(lons)
    mean_ang = np.arctan2(np.sin(ang).mean(), np.cos(ang).mean())
    dlon = np.rad2deg(np.angle(np.exp(1j * (ang - mean_ang))))
    x = dlon * np.cos(np.deg2rad(np.clip(lats, -80, 80)))
    y = lats - lats.mean()
    pts = np.stack([x, y])
    cov = np.cov(pts) if pts.shape[1] > 1 else np.eye(2)
    evals = np.sort(np.linalg.eigvalsh(cov))[::-1]
    evals = np.maximum(evals, 1e-9)
    # 4-sigma extents approximate the footprint of a filament.
    length = 4.0 * np.sqrt(evals[0])
    width = 4.0 * np.sqrt(evals[1])
    return length, width, float(np.abs(lats).max()), float(np.abs(lats).min())


def river_mask(
    fields: dict[str, np.ndarray],
    grid: Grid,
    exclude: np.ndarray | None = None,
) -> np.ndarray:
    """Boolean AR mask from the TMQ field.

    ``exclude`` marks pixels already claimed by another class (TCs take
    precedence in the paper's 3-class labels).
    """
    tmq = fields["TMQ"].astype(np.float64)
    background = _zonal_climatology(tmq, grid)
    wet = tmq - background >= ANOMALY_THRESHOLD
    lat2d, _ = grid.meshgrid()
    wet &= np.abs(lat2d) >= EXCLUSION_LAT
    wet &= np.abs(lat2d) <= MAX_ABS_LAT
    if exclude is not None:
        wet &= ~exclude
    labeled, count = connected_components_periodic(wet)
    out = np.zeros(grid.shape, dtype=bool)
    for comp in range(1, count + 1):
        rows, cols = np.nonzero(labeled == comp)
        if rows.size < MIN_AREA_CELLS:
            continue
        length, width, reach, _ = _component_geometry(rows, cols, grid)
        if length < MIN_LENGTH_DEG:
            continue
        if width > 0 and length / max(width, 1e-9) < MIN_ASPECT:
            continue
        if reach < MIN_REACH_LAT:
            continue
        out[rows, cols] = True
    return out
