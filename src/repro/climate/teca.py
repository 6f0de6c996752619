"""TECA-style tropical cyclone detection and masking.

The paper's TC labels come from the Toolkit for Extreme Climate Analysis
(TECA), which applies multi-variate threshold criteria: a sea-level-pressure
minimum, a warm core aloft, and high near-surface winds, restricted to
tropical latitudes.  This module reimplements that recipe on our field dict:

1. candidate detection — local PSL minima with a sufficient depression
   relative to the large-scale environment;
2. physical filters — warm-core and wind-speed criteria;
3. mask growth — a floodfill from each accepted center over pixels whose
   pressure depression stays above a fraction of the central depression,
   capped at a maximum radius.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .grid import Grid

__all__ = ["TCCandidate", "TecaConfig", "detect_cyclones", "cyclone_mask"]


@dataclass(frozen=True)
class TCCandidate:
    """One detected cyclone center."""

    lat_idx: int
    lon_idx: int
    lat: float
    lon: float
    depression_pa: float   # environment-relative PSL deficit (positive number)
    warm_core_k: float     # T500 anomaly at center
    wind_max: float        # peak 850 hPa wind within the search radius


@dataclass(frozen=True)
class TecaConfig:
    """Thresholds for the TC detector (TECA-like defaults)."""

    min_warm_core_k: float = 0.5         # upper-level warm anomaly


# The detector's fixed TECA-like thresholds.
MIN_DEPRESSION_PA = 800.0       # central pressure deficit
MIN_WIND_MS = 15.0              # near-center wind maximum
MAX_ABS_LAT = 45.0              # tropical/subtropical band
SEARCH_RADIUS_DEG = 4.0         # radius for the wind criterion
MASK_RADIUS_DEG = 8.0           # hard cap on mask extent
MASK_DEPRESSION_FRAC = 0.25     # floodfill keeps pixels above this
ENVIRONMENT_SIGMA_DEG = 12.0    # smoothing scale for the environment


def _environment(field: np.ndarray, grid: Grid, sigma_deg: float) -> np.ndarray:
    """Large-scale environment: heavy smoothing (periodic in longitude)."""
    sigma_cells = (sigma_deg / grid.deg_per_cell_lat, sigma_deg / grid.deg_per_cell_lon)
    return ndimage.gaussian_filter(field, sigma=sigma_cells, mode=("nearest", "wrap"))


def detect_cyclones(
    fields: dict[str, np.ndarray], grid: Grid, config: TecaConfig | None = None
) -> list[TCCandidate]:
    """Find cyclone centers passing all TECA criteria."""
    cfg = config or TecaConfig()
    psl = fields["PSL"].astype(np.float64)
    env = _environment(psl, grid, ENVIRONMENT_SIGMA_DEG)
    anomaly = psl - env  # negative in depressions
    t500_anom = fields["T500"].astype(np.float64) - _environment(
        fields["T500"].astype(np.float64), grid, ENVIRONMENT_SIGMA_DEG
    )
    wind = np.hypot(fields["U850"], fields["V850"]).astype(np.float64)

    # Local minima of the anomaly field within a window ~ the search radius.
    win = max(int(SEARCH_RADIUS_DEG / grid.deg_per_cell_lat), 1) * 2 + 1
    local_min = ndimage.minimum_filter(anomaly, size=win, mode=("nearest", "wrap"))
    is_min = (anomaly == local_min) & (anomaly <= -MIN_DEPRESSION_PA)

    lats = grid.lats
    candidates: list[TCCandidate] = []
    wind_win = win
    wind_max_near = ndimage.maximum_filter(wind, size=wind_win, mode=("nearest", "wrap"))
    for i, j in zip(*np.nonzero(is_min)):
        lat = lats[i]
        if abs(lat) > MAX_ABS_LAT:
            continue
        if t500_anom[i, j] < cfg.min_warm_core_k:
            continue
        if wind_max_near[i, j] < MIN_WIND_MS:
            continue
        candidates.append(
            TCCandidate(
                lat_idx=int(i),
                lon_idx=int(j),
                lat=float(lat),
                lon=float(grid.lons[j]),
                depression_pa=float(-anomaly[i, j]),
                warm_core_k=float(t500_anom[i, j]),
                wind_max=float(wind_max_near[i, j]),
            )
        )
    # Deduplicate centers closer than the search radius (keep the deepest).
    candidates.sort(key=lambda c: -c.depression_pa)
    kept: list[TCCandidate] = []
    for c in candidates:
        if all(
            grid.angular_distance_deg(c.lat, c.lon)[k.lat_idx, k.lon_idx]
            > SEARCH_RADIUS_DEG
            for k in kept
        ):
            kept.append(c)
    return kept


def cyclone_mask(
    fields: dict[str, np.ndarray],
    grid: Grid,
    candidates: list[TCCandidate],
) -> np.ndarray:
    """Grow a boolean TC mask around each accepted center."""
    psl = fields["PSL"].astype(np.float64)
    env = _environment(psl, grid, ENVIRONMENT_SIGMA_DEG)
    depression = env - psl  # positive inside storms
    mask = np.zeros(grid.shape, dtype=bool)
    for c in candidates:
        keep = depression >= MASK_DEPRESSION_FRAC * c.depression_pa
        keep &= grid.angular_distance_deg(c.lat, c.lon) <= MASK_RADIUS_DEG
        # Connected component containing the center only (floodfill).
        labeled, _ = ndimage.label(keep)
        comp = labeled[c.lat_idx, c.lon_idx]
        if comp != 0:
            mask |= labeled == comp
    return mask
