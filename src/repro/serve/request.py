"""Request/response records for the inference service.

A request is one (C, H, W) climate snapshot to segment; the server's
answer is the argmax class map from seam-free tiled inference
(:mod:`repro.core.inference`).  Every offered request gets exactly one
response — ``served`` with a class map, ``shed`` by admission control, or
``failed`` when no live replica remains — so callers can audit that no
admitted request was ever lost (the resilience acceptance invariant).

Timestamps are seconds on the server's clock (a
:class:`repro.telemetry.SimulatedClock` in tests and the CLI, so queueing
and batching dynamics are deterministic and virtual-time latencies are
exact).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["DEFAULT_LANES", "InferenceRequest", "InferenceResponse",
           "lane_summary"]

#: Priority lanes, highest priority first: interactive requests are
#: batched ahead of bulk backfill traffic.
DEFAULT_LANES = ("interactive", "bulk")


def validate_slo_s(slo_s) -> None:
    """Reject a per-lane SLO table with an unknown, repeated or
    non-positive entry (a repeated lane would be read two ways)."""
    seen = set()
    for lane, slo in slo_s:
        if lane not in DEFAULT_LANES:
            raise ValueError(f"slo for unknown lane {lane!r}")
        if lane in seen:
            raise ValueError(f"slo for lane {lane!r} given twice")
        seen.add(lane)
        if slo <= 0:
            raise ValueError("slo_s targets must be positive")


def lane_summary(latencies_s, shed: int) -> dict:
    """One lane's report row from its served latencies and shed count.

    ``summarize`` and ``summarize_fleet`` build their per-lane rows here.
    """
    lat = np.asarray(latencies_s, dtype=np.float64)
    p50, p99 = np.percentile(lat, [50, 99]) if lat.size else (0.0, 0.0)
    return {"served": int(lat.size), "shed": int(shed),
            "p50_ms": float(p50) * 1e3, "p99_ms": float(p99) * 1e3}


@dataclass
class InferenceRequest:
    """One snapshot to segment, with its arrival metadata."""

    request_id: int
    image: np.ndarray               # (C, H, W) float32 snapshot
    lane: str = "interactive"
    arrival_s: float = 0.0          # offered time on the server clock
    enqueued_s: float | None = None  # set on admission
    #: Window origins ``(ys, xs)`` per ``(window_hw, stride_hw)``, cut
    #: once (:func:`repro.serve.replica.request_grid`).
    grids: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.image.ndim != 3:
            raise ValueError(
                f"request image must be (C, H, W); got {self.image.shape}")


@dataclass
class InferenceResponse:
    """The terminal outcome of one request."""

    request_id: int
    lane: str
    status: str                     # "served" | "shed" | "failed"
    arrival_s: float
    completed_s: float | None = None
    replica_id: int | None = None   # survivor that computed the answer
    batch_size: int = 0             # size of the micro-batch it rode in
    class_map: np.ndarray | None = field(default=None, repr=False)
    shed_reason: str | None = None  # "queue_full" | "slo" when shed
    error: str | None = None        # exception repr when failed

    @property
    def latency_s(self) -> float | None:
        """Admission-to-completion latency (None unless served)."""
        if self.completed_s is None:
            return None
        return self.completed_s - self.arrival_s
