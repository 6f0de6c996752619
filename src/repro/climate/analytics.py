"""Storm-level climate analytics from segmentation masks.

Section VIII-A, on what pixel-level masks unlock: "we can now compute
conditional precipitation, wind velocity profiles and power dissipation
indices for individual storm systems."  This module computes exactly those
quantities from a (predicted or labeled) mask and the physical fields:

* per-storm **conditional precipitation** — mean/max PRECT inside the mask;
* **wind velocity profiles** — azimuthally averaged wind speed vs radius
  around a storm center;
* the **power dissipation index** (PDI), the integral of the cube of the
  surface wind speed over the storm footprint (Emanuel's damage proxy);
* area-weighted footprints (cos-latitude cell areas on the sphere).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .grid import Grid
from .labels import CLASS_TC

__all__ = ["StormStatistics", "cell_areas_km2", "storm_statistics",
           "radial_wind_profile", "basin_summary"]

EARTH_RADIUS_KM = 6371.0


def cell_areas_km2(grid: Grid) -> np.ndarray:
    """(H, W) grid-cell areas in km^2 (equirectangular, cos-lat weighted)."""
    dlat = np.deg2rad(grid.deg_per_cell_lat)
    dlon = np.deg2rad(grid.deg_per_cell_lon)
    coslat = np.cos(np.deg2rad(grid.lats))
    row_area = EARTH_RADIUS_KM**2 * dlat * dlon * coslat
    return np.broadcast_to(row_area[:, None], grid.shape).copy()


@dataclass(frozen=True)
class StormStatistics:
    """Integrated quantities for one storm footprint."""

    label_id: int
    area_km2: float
    center_lat: float
    center_lon: float
    min_psl_hpa: float
    max_wind_ms: float
    mean_conditional_precip: float   # mean PRECT inside the mask, m/s
    max_precip: float
    power_dissipation_index: float   # sum of v^3 * area, m^3 s^-3 km^2


#: Components smaller than this many cells are not reported as storms.
MIN_AREA_CELLS = 3


def storm_statistics(
    fields: dict[str, np.ndarray],
    mask: np.ndarray,
    grid: Grid,
) -> list[StormStatistics]:
    """Per-connected-component storm statistics from a boolean mask."""
    if mask.shape != grid.shape:
        raise ValueError(f"mask shape {mask.shape} != grid {grid.shape}")
    labeled, count = ndimage.label(mask)
    areas = cell_areas_km2(grid)
    wind = np.hypot(fields["UBOT"], fields["VBOT"])
    psl = fields["PSL"]
    prect = fields["PRECT"]
    lats2d, lons2d = grid.meshgrid()
    out: list[StormStatistics] = []
    for comp in range(1, count + 1):
        sel = labeled == comp
        if sel.sum() < MIN_AREA_CELLS:
            continue
        w = areas[sel]
        w_norm = w / w.sum()
        # Pressure-minimum cell defines the center.
        flat_idx = np.flatnonzero(sel)
        center = flat_idx[np.argmin(psl[sel])]
        ci, cj = np.unravel_index(center, grid.shape)
        out.append(StormStatistics(
            label_id=comp,
            area_km2=float(w.sum()),
            center_lat=float(lats2d[ci, cj]),
            center_lon=float(lons2d[ci, cj]),
            min_psl_hpa=float(psl[sel].min() / 100.0),
            max_wind_ms=float(wind[sel].max()),
            mean_conditional_precip=float((prect[sel] * w_norm).sum()),
            max_precip=float(prect[sel].max()),
            power_dissipation_index=float((wind[sel] ** 3 * w).sum()),
        ))
    return out


def radial_wind_profile(
    fields: dict[str, np.ndarray],
    grid: Grid,
    center_lat: float,
    center_lon: float,
    max_radius_deg: float = 10.0,
    bins: int = 10,
) -> tuple[np.ndarray, np.ndarray]:
    """Azimuthally averaged wind speed vs radius around a storm center.

    Returns (bin centers in degrees, mean wind speed per bin); empty bins
    are NaN.
    """
    if bins < 1 or max_radius_deg <= 0:
        raise ValueError("need bins >= 1 and positive max radius")
    dist = grid.angular_distance_deg(center_lat, center_lon)
    wind = np.hypot(fields["U850"], fields["V850"])
    edges = np.linspace(0.0, max_radius_deg, bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    profile = np.full(bins, np.nan)
    for b in range(bins):
        sel = (dist >= edges[b]) & (dist < edges[b + 1])
        if sel.any():
            profile[b] = float(wind[sel].mean())
    return centers, profile


def basin_summary(stats: list[StormStatistics]) -> dict[str, float]:
    """Aggregate storm metrics (the 'beyond global storm counts' the paper
    promises): counts, total PDI, strongest wind, total conditional rain."""
    if not stats:
        return {"count": 0, "total_pdi": 0.0, "max_wind_ms": 0.0,
                "total_area_km2": 0.0}
    return {
        "count": len(stats),
        "total_pdi": float(sum(s.power_dissipation_index for s in stats)),
        "max_wind_ms": float(max(s.max_wind_ms for s in stats)),
        "total_area_km2": float(sum(s.area_km2 for s in stats)),
    }
