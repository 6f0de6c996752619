"""Synthetic CAM5-like snapshot generator.

Produces 16-channel global snapshots whose statistics mimic 0.25-degree
CAM5 output closely enough that the paper's heuristic labeling pipeline
(TECA-style TC thresholds, IWV floodfill for ARs) operates unchanged:
a zonally structured climatological background, spatially correlated
weather noise, and explicit TC / AR events imprinted on top.

The generator keeps the ground-truth event geometry alongside the fields,
which lets tests verify that the *heuristic* labelers actually find the
*synthesized* events — the consistency the paper's label pipeline assumes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .cyclones import TropicalCyclone, imprint_cyclone, sample_cyclones
from .grid import CHANNEL_NAMES, Grid
from .rivers import AtmosphericRiver, imprint_river, sample_rivers

__all__ = ["ClimateSnapshot", "SnapshotSynthesizer"]


@dataclass
class ClimateSnapshot:
    """One synthetic model output time step with ground-truth events."""

    grid: Grid
    fields: dict[str, np.ndarray]
    cyclones: list[TropicalCyclone]
    rivers: list[AtmosphericRiver]

    def to_array(self) -> np.ndarray:
        """Stack fields in canonical channel order -> (16, H, W) float32."""
        return np.stack([self.fields[name]
                         for name in CHANNEL_NAMES]).astype(np.float32)

    @property
    def shape(self) -> tuple[int, int, int]:
        return (len(CHANNEL_NAMES),) + self.grid.shape


def _smooth_noise(rng: np.random.Generator, shape: tuple[int, int],
                  sigma: float, amplitude: float) -> np.ndarray:
    """Spatially correlated noise with unit-calibrated amplitude."""
    raw = rng.standard_normal(shape)
    smooth = ndimage.gaussian_filter(raw, sigma=sigma, mode="wrap")
    std = smooth.std()
    if std > 0:
        smooth /= std
    return amplitude * smooth


class SnapshotSynthesizer:
    """Generates :class:`ClimateSnapshot` objects.

    Parameters
    ----------
    grid:
        Target grid (use :data:`repro.climate.grid.PAPER_GRID` for the full
        1152x768 resolution; tests use much smaller grids).
    mean_cyclones, mean_rivers:
        Poisson means for event counts per snapshot (tuned so that class
        frequencies land near the paper's ~98.2% BG / ~1.7% AR / <0.1% TC).
    noise_scale:
        Multiplier on weather-noise amplitudes (0 disables noise).
    """

    def __init__(
        self,
        grid: Grid,
        mean_cyclones: float = 3.0,
        mean_rivers: float = 1.8,
        noise_scale: float = 1.0,
    ):
        self.grid = grid
        self.mean_cyclones = float(mean_cyclones)
        self.mean_rivers = float(mean_rivers)
        self.noise_scale = float(noise_scale)

    # -- background climatology ------------------------------------------------

    def _background(self, rng: np.random.Generator) -> dict[str, np.ndarray]:
        grid = self.grid
        lat2d, lon2d = grid.meshgrid()
        latr = np.deg2rad(lat2d)
        ns = self.noise_scale
        shape = grid.shape
        # Correlation length ~ 10 degrees regardless of resolution.
        sigma = max(grid.nlat / 18.0, 1.0)

        fields: dict[str, np.ndarray] = {}
        coslat = np.cos(latr)
        # Moisture: tropics-peaked column water vapor.
        fields["TMQ"] = 38.0 * coslat**4 + 4.0 + _smooth_noise(rng, shape, sigma, 3.0 * ns)
        fields["QREFHT"] = 0.016 * coslat**4 + 0.001 + _smooth_noise(rng, shape, sigma, 0.001 * ns)
        # Temperatures: meridional gradient, cold aloft.
        fields["TS"] = 300.0 - 45.0 * np.sin(latr) ** 2 + _smooth_noise(rng, shape, sigma, 1.5 * ns)
        fields["TREFHT"] = fields["TS"] - 1.5 + _smooth_noise(rng, shape, sigma, 0.5 * ns)
        fields["T500"] = 265.0 - 25.0 * np.sin(latr) ** 2 + _smooth_noise(rng, shape, sigma, 1.0 * ns)
        fields["T200"] = 218.0 - 8.0 * np.sin(latr) ** 2 + _smooth_noise(rng, shape, sigma, 1.0 * ns)
        # Pressure: subtropical highs, polar/equatorial lows.
        fields["PSL"] = (
            101325.0
            + 600.0 * np.cos(2 * latr)            # equator/pole lows
            + 900.0 * np.cos(latr) ** 8 * np.cos(2 * np.deg2rad(lon2d))
            + _smooth_noise(rng, shape, sigma, 250.0 * ns)
        )
        fields["PS"] = fields["PSL"] - 500.0 + _smooth_noise(rng, shape, sigma, 150.0 * ns)
        # Winds: trade easterlies + mid-latitude westerly jets.
        jet = 12.0 * np.sin(2 * latr) ** 2 * np.sign(np.abs(lat2d) - 0.0)
        trades = -6.0 * coslat**6
        fields["U850"] = jet + trades + _smooth_noise(rng, shape, sigma, 3.0 * ns)
        fields["V850"] = _smooth_noise(rng, shape, sigma, 3.0 * ns)
        fields["UBOT"] = 0.7 * fields["U850"] + _smooth_noise(rng, shape, sigma, 1.5 * ns)
        fields["VBOT"] = 0.7 * fields["V850"] + _smooth_noise(rng, shape, sigma, 1.5 * ns)
        # Precipitation: ITCZ band plus noise (kept non-negative at the end).
        fields["PRECT"] = 4e-8 * coslat**8 + _smooth_noise(rng, shape, sigma, 1.5e-8 * ns)
        # Geopotential heights.
        fields["Z100"] = 16200.0 - 350.0 * np.sin(latr) ** 2 + _smooth_noise(rng, shape, sigma, 40.0 * ns)
        fields["Z200"] = 11800.0 - 450.0 * np.sin(latr) ** 2 + _smooth_noise(rng, shape, sigma, 40.0 * ns)
        fields["ZBOT"] = 60.0 + _smooth_noise(rng, shape, sigma, 4.0 * ns)
        return fields

    # -- public API --------------------------------------------------------------

    def generate(self, seed: int) -> ClimateSnapshot:
        """Generate one snapshot deterministically from a seed."""
        rng = np.random.default_rng(seed)
        fields = self._background(rng)
        cyclones = sample_cyclones(rng, self.mean_cyclones)
        rivers = sample_rivers(rng, self.mean_rivers)
        for tc in cyclones:
            imprint_cyclone(fields, self.grid, tc)
        for ar in rivers:
            imprint_river(fields, self.grid, ar)
        # Physical floors.
        np.maximum(fields["PRECT"], 0.0, out=fields["PRECT"])
        np.maximum(fields["TMQ"], 0.0, out=fields["TMQ"])
        np.maximum(fields["QREFHT"], 0.0, out=fields["QREFHT"])
        for name in CHANNEL_NAMES:
            fields[name] = fields[name].astype(np.float32)
        return ClimateSnapshot(self.grid, fields, cyclones, rivers)
