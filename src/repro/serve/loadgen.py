"""Seeded synthetic load generator for the inference service.

Produces a deterministic open-loop workload: Poisson arrivals at a target
offered rate, lane assignment by weight, and a tunable fraction of
repeat snapshots (re-submissions of an earlier image) so the tile cache
has real redundancy to exploit.  Everything derives from one
``numpy.random.default_rng(seed)`` stream, so a (config, seed) pair
always yields byte-identical requests — the property the CLI, the CI
smoke job, and ``bench_serving`` all lean on.

Two generators live here:

* :func:`synth_workload` — per-request python objects with real image
  payloads, feeding :class:`~repro.serve.InferenceServer` (hundreds to
  thousands of requests);
* :func:`replay_workload` — the fleet-scale path: a columnar
  :class:`~repro.serve.fleet.Replay` of ~10^6 virtual requests with a
  diurnal rate curve, square-wave bursts, Zipf-skewed key popularity,
  weighted lanes and uniform cells, all built with vectorized numpy so a
  million requests materialise in well under a second.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fleet.fleet import Replay
from .request import DEFAULT_LANES, InferenceRequest

__all__ = ["WorkloadConfig", "synth_workload",
           "ReplayConfig", "replay_workload"]

#: Share of requests per lane of ``DEFAULT_LANES``, in both generators.
LANE_WEIGHTS = (0.5, 0.5)
#: Peak-to-mean swing of the replay's sinusoidal "day": the trough runs
#: at 40% of mean rate and the peak at 160%.
DIURNAL_AMPLITUDE = 0.6
ZIPF_EXPONENT = 1.1         # replay key popularity skew (cache redundancy)


@dataclass(frozen=True)
class WorkloadConfig:
    """Shape of one synthetic request stream."""

    num_requests: int = 64
    rate_rps: float = 200.0          # offered arrival rate (Poisson)
    image_hw: tuple[int, int] = (16, 16)
    channels: int = 16               # matches the paper's 16-channel stack
    repeat_fraction: float = 0.25    # P(resubmit an earlier snapshot)
    seed: int = 0

    def __post_init__(self):
        if self.num_requests < 1:
            raise ValueError("num_requests must be >= 1")
        if self.rate_rps <= 0:
            raise ValueError("rate_rps must be positive")
        if not 0.0 <= self.repeat_fraction <= 1.0:
            raise ValueError("repeat_fraction must be in [0, 1]")


def synth_workload(config: WorkloadConfig) -> list[InferenceRequest]:
    """Materialise the request stream described by ``config``."""
    rng = np.random.default_rng(config.seed)
    weights = np.asarray(LANE_WEIGHTS, dtype=np.float64)
    weights = weights / weights.sum()
    h, w = config.image_hw
    images: list[np.ndarray] = []
    requests: list[InferenceRequest] = []
    t = 0.0
    for rid in range(config.num_requests):
        t += float(rng.exponential(1.0 / config.rate_rps))
        if images and rng.random() < config.repeat_fraction:
            image = images[int(rng.integers(len(images)))]
        else:
            image = rng.standard_normal(
                (config.channels, h, w)).astype(np.float32)
            images.append(image)
        lane = DEFAULT_LANES[int(rng.choice(len(DEFAULT_LANES), p=weights))]
        requests.append(InferenceRequest(
            request_id=rid, image=image, lane=lane, arrival_s=t))
    return requests


@dataclass(frozen=True)
class ReplayConfig:
    """Shape of one fleet-scale replay (diurnal + burst traffic)."""

    num_requests: int = 1_000_000
    duration_s: float = 600.0
    cells: tuple[str, ...] = ("cell0",)            # drawn uniformly
    #: Square-wave overload windows: (start_s, duration_s, rate_multiplier).
    bursts: tuple[tuple[float, float, float], ...] = ()
    snapshot_pool: int = 5000       # distinct content keys
    windows: int = 4                # tile windows per request
    seed: int = 0

    def __post_init__(self):
        if self.num_requests < 1:
            raise ValueError("num_requests must be >= 1")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if not self.cells:
            raise ValueError("cells must be non-empty")
        for start, dur, mult in self.bursts:
            if dur <= 0 or mult <= 0:
                raise ValueError("burst duration and multiplier must be > 0")
        if self.snapshot_pool < 1 or self.windows < 1:
            raise ValueError("snapshot_pool and windows must be >= 1")


#: Time bins of the arrival-intensity profile.
RATE_BINS = 4096


def _rate_profile(config: ReplayConfig) -> np.ndarray:
    """Relative arrival intensity per time bin; one "day" = the horizon."""
    centers = (np.arange(RATE_BINS) + 0.5) * (config.duration_s / RATE_BINS)
    # Trough at t=0 so a replay starts quiet and climbs into the "day".
    rate = 1.0 + DIURNAL_AMPLITUDE * np.sin(
        2.0 * np.pi * centers / config.duration_s - np.pi / 2.0)
    for start, dur, mult in config.bursts:
        rate[(centers >= start) & (centers < start + dur)] *= mult
    return rate


def replay_workload(config: ReplayConfig) -> Replay:
    """Materialise the columnar replay described by ``config``.

    Arrivals are drawn by inverse-CDF sampling of the diurnal+burst
    intensity profile — exactly ``num_requests`` arrivals whose density
    follows the profile, fully vectorized, no per-request python loop.
    """
    rng = np.random.default_rng(config.seed)
    profile = _rate_profile(config)
    cdf = np.cumsum(profile)
    cdf = cdf / cdf[-1]
    bin_w = config.duration_s / len(profile)
    u = rng.random(config.num_requests)
    idx = np.searchsorted(cdf, u, side="left")
    lo = np.concatenate(([0.0], cdf[:-1]))[idx]
    frac = (u - lo) / np.maximum(cdf[idx] - lo, 1e-300)
    arrival = (idx + frac) * bin_w
    arrival.sort()

    ranks = np.arange(1, config.snapshot_pool + 1, dtype=np.float64)
    pop = ranks ** -ZIPF_EXPONENT
    pop /= pop.sum()
    keys = rng.choice(config.snapshot_pool, size=config.num_requests,
                      p=pop).astype(np.int64)

    lane_w = np.asarray(LANE_WEIGHTS, dtype=np.float64)
    lanes = rng.choice(len(DEFAULT_LANES), size=config.num_requests,
                       p=lane_w / lane_w.sum()).astype(np.int16)
    cell_w = np.full(len(config.cells), 1.0 / len(config.cells))
    cells = rng.choice(len(config.cells), size=config.num_requests,
                       p=cell_w).astype(np.int16)
    windows = np.full(config.num_requests, config.windows, dtype=np.int16)
    return Replay(arrival_s=arrival, key=keys, lane=lanes, cell=cells,
                  windows=windows, lanes=DEFAULT_LANES, cells=config.cells)
