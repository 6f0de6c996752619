"""Synthetic atmospheric rivers: long, narrow filaments of moisture flux.

ARs carry most of the poleward water-vapor transport; the paper's labels mark
them with an IWV-threshold floodfill (Section III-A2, citing the ARTMIP
methodology).  Our synthetic ARs are smooth poleward-arcing centerlines with
a Gaussian cross-section in total precipitable water (TMQ), plus coherent
along-axis winds and enhanced precipitation — enough structure for the
floodfill labeler to find them the same way the real pipeline does.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import Grid

__all__ = ["AtmosphericRiver", "sample_rivers", "imprint_river"]


@dataclass(frozen=True)
class AtmosphericRiver:
    """Ground-truth geometry of one synthetic AR."""

    start_lat: float
    start_lon: float
    length_deg: float          # along-track length
    width_deg: float           # cross-track e-folding half width
    intensity: float           # peak TMQ enhancement, kg/m^2
    heading_deg: float         # initial bearing, degrees from east (CCW)
    curvature: float           # bearing drift per degree travelled
    waypoints: tuple = field(default=(), compare=False)


def sample_rivers(
    rng: np.random.Generator,
    mean_count: float = 1.8,
) -> list[AtmosphericRiver]:
    """Draw a Poisson number of ARs rooted in the subtropics."""
    count = rng.poisson(mean_count)
    rivers = []
    for _ in range(count):
        hemisphere = 1.0 if rng.random() < 0.5 else -1.0
        start_lat = hemisphere * rng.uniform(15.0, 28.0)
        start_lon = rng.uniform(0.0, 360.0)
        length = rng.uniform(25.0, 60.0)
        width = rng.uniform(1.5, 4.0)
        intensity = rng.uniform(14.0, 30.0)
        # Head generally eastward and poleward.
        heading = rng.uniform(20.0, 70.0) * hemisphere
        curvature = rng.uniform(-0.6, 0.6)
        ar = AtmosphericRiver(start_lat, start_lon, length, width, intensity,
                              heading, curvature)
        rivers.append(_with_waypoints(ar))
    return rivers


#: Centerline integration step, degrees.
WAYPOINT_STEP_DEG = 1.0


def _with_waypoints(ar: AtmosphericRiver) -> AtmosphericRiver:
    """Integrate the centerline into explicit (lat, lon) waypoints."""
    pts = []
    lat, lon = ar.start_lat, ar.start_lon
    heading = np.deg2rad(ar.heading_deg)
    travelled = 0.0
    while travelled <= ar.length_deg:
        pts.append((lat, lon % 360.0))
        lat += WAYPOINT_STEP_DEG * np.sin(heading)
        lon += WAYPOINT_STEP_DEG * np.cos(heading) / max(np.cos(np.deg2rad(np.clip(lat, -75, 75))), 0.2)
        heading += np.deg2rad(ar.curvature) * WAYPOINT_STEP_DEG
        travelled += WAYPOINT_STEP_DEG
        if abs(lat) > 62.0:
            break
    return AtmosphericRiver(ar.start_lat, ar.start_lon, ar.length_deg, ar.width_deg,
                            ar.intensity, ar.heading_deg, ar.curvature, tuple(pts))


def imprint_river(fields: dict[str, np.ndarray], grid: Grid, ar: AtmosphericRiver) -> None:
    """Add one AR's signature to the field dict, in place."""
    if not ar.waypoints:
        ar = _with_waypoints(ar)
    # Distance to the nearest centerline waypoint; dense waypoints make this
    # a good approximation of distance-to-curve.
    dist = None
    for lat, lon in ar.waypoints:
        d = grid.angular_distance_deg(lat, lon)
        dist = d if dist is None else np.minimum(dist, d)
    envelope = np.exp(-0.5 * (dist / ar.width_deg) ** 2)
    fields["TMQ"] += ar.intensity * envelope
    fields["QREFHT"] += 0.003 * envelope
    fields["PRECT"] += 1.2e-7 * ar.intensity * envelope
    # Along-axis low-level jet: approximate with the mean track bearing.
    mean_heading = np.deg2rad(ar.heading_deg + ar.curvature * ar.length_deg / 2)
    jet = 12.0 * envelope
    fields["U850"] += jet * np.cos(mean_heading)
    fields["V850"] += jet * np.sin(mean_heading)
    fields["UBOT"] += 0.6 * jet * np.cos(mean_heading)
    fields["VBOT"] += 0.6 * jet * np.sin(mean_heading)
