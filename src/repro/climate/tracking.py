"""Cyclone tracking across time steps.

Section VIII-A: "In the future, we will explore advanced architectures that
can consider temporal evolution of storms."  TECA itself stitches per-frame
detections into trajectories; this module implements both sides of that:

* :func:`generate_sequence` — synthetic CAM5 sequences where each cyclone is
  *advected* between 3-hourly frames (westward trade-wind steering plus a
  poleward beta drift, the climatological TC track shape) and slowly evolves
  in intensity;
* :func:`track_cyclones` — greedy nearest-neighbour stitching of per-frame
  :class:`TCCandidate` detections into :class:`Track` objects with a maximum
  per-step displacement and a minimum-lifetime filter.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .cyclones import TropicalCyclone, imprint_cyclone
from .grid import Grid
from .rivers import imprint_river
from .synthesis import ClimateSnapshot, SnapshotSynthesizer
from .teca import TCCandidate, detect_cyclones

__all__ = ["Track", "advect_cyclone", "generate_sequence", "track_cyclones"]


#: Time between consecutive snapshots of a sequence, hours.
DT_HOURS = 3.0


def advect_cyclone(tc: TropicalCyclone,
                   rng: np.random.Generator) -> TropicalCyclone:
    """One time step of storm motion and evolution.

    Climatological steering: ~4 deg/day westward in the trades with a
    ~1.5 deg/day poleward beta drift, plus stochastic wobble; intensity
    performs a bounded random walk.
    """
    days = DT_HOURS / 24.0
    sign = tc.hemisphere_sign
    dlon = -4.0 * days + rng.normal(0.0, 0.6 * days)
    dlat = sign * (1.5 * days + abs(rng.normal(0.0, 0.5 * days)))
    depth = float(np.clip(tc.depth_hpa * (1.0 + rng.normal(0.0, 0.05)), 8.0, 80.0))
    vmax = float(np.clip(tc.vmax * (1.0 + rng.normal(0.0, 0.04)), 12.0, 90.0))
    return replace(
        tc,
        lat=float(np.clip(tc.lat + dlat, -55.0, 55.0)),
        lon=float((tc.lon + dlon) % 360.0),
        depth_hpa=depth,
        vmax=vmax,
    )


def generate_sequence(
    grid: Grid,
    steps: int,
    seed: int = 0,
    synthesizer: SnapshotSynthesizer | None = None,
) -> tuple[list[ClimateSnapshot], list[list[TropicalCyclone]]]:
    """A temporally coherent snapshot sequence with persistent storms.

    Returns the snapshots and, per frame, the ground-truth cyclone states
    (the test oracle for the tracker).
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    synth = synthesizer or SnapshotSynthesizer(grid)
    rng = np.random.default_rng(seed)
    base = synth.generate(seed)  # provides the initial storms and rivers
    storms = list(base.cyclones)
    rivers = list(base.rivers)
    snapshots: list[ClimateSnapshot] = []
    truth: list[list[TropicalCyclone]] = []
    for t in range(steps):
        # Fresh background each frame (weather noise), persistent events.
        background = synth._background(np.random.default_rng(seed * 77 + t))
        for tc in storms:
            imprint_cyclone(background, grid, tc)
        for ar in rivers:
            imprint_river(background, grid, ar)
        np.maximum(background["PRECT"], 0.0, out=background["PRECT"])
        np.maximum(background["TMQ"], 0.0, out=background["TMQ"])
        for name in background:
            background[name] = background[name].astype(np.float32)
        snapshots.append(ClimateSnapshot(grid, background, list(storms),
                                         list(rivers)))
        truth.append(list(storms))
        storms = [advect_cyclone(tc, rng) for tc in storms]
    return snapshots, truth


@dataclass
class Track:
    """One stitched cyclone trajectory."""

    frames: list[int] = field(default_factory=list)
    detections: list[TCCandidate] = field(default_factory=list)

    @property
    def duration(self) -> int:
        return len(self.frames)

    @property
    def positions(self) -> list[tuple[float, float]]:
        return [(d.lat, d.lon) for d in self.detections]

    def displacement_deg(self, grid: Grid) -> float:
        """Total great-circle-ish track length in degrees."""
        total = 0.0
        for a, b in zip(self.detections, self.detections[1:]):
            dlat = b.lat - a.lat
            dlon = abs(b.lon - a.lon)
            dlon = min(dlon, 360.0 - dlon) * np.cos(np.deg2rad(
                np.clip((a.lat + b.lat) / 2, -80, 80)))
            total += float(np.hypot(dlat, dlon))
        return total


def _separation_deg(a: TCCandidate, b: TCCandidate) -> float:
    dlat = a.lat - b.lat
    dlon = abs(a.lon - b.lon)
    dlon = min(dlon, 360.0 - dlon) * np.cos(np.deg2rad(
        np.clip((a.lat + b.lat) / 2, -80, 80)))
    return float(np.hypot(dlat, dlon))


def track_cyclones(
    per_frame_candidates: list[list[TCCandidate]],
    max_step_deg: float = 4.0,
    min_duration: int = 2,
) -> list[Track]:
    """Stitch per-frame detections into trajectories.

    Greedy nearest-neighbour association frame to frame, capped at
    ``max_step_deg`` displacement per step (a physical storm-motion bound);
    unmatched detections start new tracks; tracks shorter than
    ``min_duration`` frames are discarded (TECA's spurious-minimum filter).
    """
    open_tracks: list[Track] = []
    finished: list[Track] = []
    for frame, candidates in enumerate(per_frame_candidates):
        unmatched = list(candidates)
        still_open: list[Track] = []
        # Match existing tracks to the closest new detection.
        pairs = []
        for ti, track in enumerate(open_tracks):
            last = track.detections[-1]
            for ci, cand in enumerate(unmatched):
                d = _separation_deg(last, cand)
                if d <= max_step_deg:
                    pairs.append((d, ti, ci))
        pairs.sort()
        taken_tracks: set[int] = set()
        taken_cands: set[int] = set()
        for d, ti, ci in pairs:
            if ti in taken_tracks or ci in taken_cands:
                continue
            open_tracks[ti].frames.append(frame)
            open_tracks[ti].detections.append(unmatched[ci])
            taken_tracks.add(ti)
            taken_cands.add(ci)
        for ti, track in enumerate(open_tracks):
            if ti in taken_tracks:
                still_open.append(track)
            else:
                finished.append(track)  # storm dissipated or was missed
        for ci, cand in enumerate(unmatched):
            if ci not in taken_cands:
                still_open.append(Track(frames=[frame], detections=[cand]))
        open_tracks = still_open
    finished.extend(open_tracks)
    return [t for t in finished if t.duration >= min_duration]
