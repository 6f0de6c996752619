"""Synthetic tropical cyclones: compact warm-core vortices.

Each cyclone imprints the physically coupled signature a TECA-style detector
looks for (Section III-A2 cites TECA's multi-variate threshold criteria):

* a sea-level-pressure depression with a roughly Gaussian radial profile,
* a warm core aloft (positive T200/T500 anomaly over the center),
* cyclonic tangential winds peaking near the radius of maximum wind,
* a moist envelope (TMQ) and an intense precipitation core.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid

__all__ = ["TropicalCyclone", "sample_cyclones", "imprint_cyclone"]


@dataclass(frozen=True)
class TropicalCyclone:
    """Ground-truth geometry/intensity of one synthetic TC."""

    lat: float          # center latitude, degrees
    lon: float          # center longitude, degrees
    radius_deg: float   # e-folding radius of the pressure depression
    depth_hpa: float    # central pressure deficit, hPa
    vmax: float         # peak tangential wind, m/s
    warm_core_k: float  # upper-level temperature anomaly, K

    @property
    def hemisphere_sign(self) -> float:
        """Cyclonic rotation sense: CCW north (+1), CW south (-1)."""
        return 1.0 if self.lat >= 0 else -1.0


#: Tropical genesis band, degrees of latitude either side of the equator.
MIN_LAT = 8.0
MAX_LAT = 32.0


def sample_cyclones(
    rng: np.random.Generator,
    mean_count: float = 3.0,
) -> list[TropicalCyclone]:
    """Draw a Poisson number of TCs with tropical genesis latitudes."""
    count = rng.poisson(mean_count)
    storms = []
    for _ in range(count):
        hemisphere = 1.0 if rng.random() < 0.5 else -1.0
        lat = hemisphere * rng.uniform(MIN_LAT, MAX_LAT)
        lon = rng.uniform(0.0, 360.0)
        radius = rng.uniform(1.5, 4.0)
        depth = rng.uniform(15.0, 60.0)
        vmax = 18.0 + depth * rng.uniform(0.5, 0.9)
        warm = rng.uniform(1.5, 5.0)
        storms.append(TropicalCyclone(lat, lon, radius, depth, vmax, warm))
    return storms


def imprint_cyclone(
    fields: dict[str, np.ndarray], grid: Grid, tc: TropicalCyclone
) -> None:
    """Add one cyclone's signature to the field dict, in place."""
    r = grid.angular_distance_deg(tc.lat, tc.lon)
    envelope = np.exp(-0.5 * (r / tc.radius_deg) ** 2)
    # Pressure depression (PSL and PS in Pa).
    depression = tc.depth_hpa * 100.0 * envelope
    fields["PSL"] -= depression
    fields["PS"] -= 0.9 * depression
    # Warm core aloft; weak cool anomaly at the surface under the eyewall.
    fields["T200"] += tc.warm_core_k * envelope
    fields["T500"] += 0.6 * tc.warm_core_k * envelope
    fields["TS"] -= 0.3 * envelope
    # Tangential wind: v(r) = vmax * (r/rm) * exp(1-r/rm) (Rankine-like),
    # projected onto zonal/meridional components.
    rm = tc.radius_deg * 0.75  # radius of maximum wind
    rr = np.maximum(r, 1e-6)
    speed = tc.vmax * (rr / rm) * np.exp(1.0 - rr / rm)
    lat2d, lon2d = grid.meshgrid()
    dlon = lon2d - tc.lon
    dlon = (dlon + 180.0) % 360.0 - 180.0
    dlon = dlon * np.cos(np.deg2rad(np.clip(lat2d, -80, 80)))
    dlat = lat2d - tc.lat
    # Unit tangential vector (CCW): (-dy, dx)/r.
    sign = tc.hemisphere_sign
    u_t = sign * (-dlat / rr) * speed
    v_t = sign * (dlon / rr) * speed
    fields["U850"] += u_t
    fields["V850"] += v_t
    fields["UBOT"] += 0.8 * u_t
    fields["VBOT"] += 0.8 * v_t
    # Moisture and precipitation core.
    fields["TMQ"] += 18.0 * envelope
    fields["QREFHT"] += 0.004 * envelope
    fields["PRECT"] += 2.5e-7 * tc.vmax * envelope
    # Upper-level height rises over the warm core; boundary layer sinks.
    fields["Z200"] += 25.0 * tc.warm_core_k * envelope
    fields["Z100"] += 12.0 * tc.warm_core_k * envelope
    fields["ZBOT"] -= 4.0 * envelope
