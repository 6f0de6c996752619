"""Priority-laned request queue with SLO-aware admission control.

The paper-scale serving story ("millions of users") lives or dies on what
happens at overload: an unbounded queue turns excess demand into unbounded
latency for *everyone*, while load shedding keeps the served fraction
inside its latency target.  The queue therefore has

* **priority lanes** (``interactive`` ahead of ``bulk`` by default) —
  batches drain higher lanes first, FIFO within a lane;
* **depth backpressure** — each lane holds at most ``max_depth`` waiting
  requests; an arrival past the cap is shed with reason ``queue_full``;
* **SLO-aware shedding** — with a per-lane ``slo_s`` target, the
  controller estimates the arrival's queueing delay from the windows
  already waiting (each request counts the tiles the replicas will cut
  from its snapshot) and an EWMA of measured per-window service time, and
  sheds with reason ``slo`` when the estimate exceeds the target.  A
  request that would miss its SLO anyway is cheaper to refuse at the door
  than to compute and deliver late.

Every decision is counted (``serve.admitted``, ``serve.shed{lane,reason}``)
through the active :mod:`repro.telemetry` session.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..telemetry import get_active
from .replica import window_grid
from .request import DEFAULT_LANES, InferenceRequest

__all__ = ["AdmissionConfig", "AdmissionController", "RequestQueue"]


@dataclass(frozen=True)
class AdmissionConfig:
    """Lane layout and shed thresholds."""

    lanes: tuple[str, ...] = DEFAULT_LANES   # highest priority first
    max_depth: int = 64                      # per-lane waiting-request cap
    #: Optional per-lane queueing-delay targets, e.g.
    #: ``(("interactive", 0.05),)``; lanes without an entry shed on depth
    #: only.
    slo_s: tuple[tuple[str, float], ...] = ()
    ewma_alpha: float = 0.2                  # service-time estimator decay

    def __post_init__(self):
        if not self.lanes:
            raise ValueError("need at least one lane")
        if len(set(self.lanes)) != len(self.lanes):
            raise ValueError("duplicate lane names")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        for lane, slo in self.slo_s:
            if lane not in self.lanes:
                raise ValueError(f"slo for unknown lane {lane!r}")
            if slo <= 0:
                raise ValueError("slo_s targets must be positive")

    def slo_for(self, lane: str) -> float | None:
        for name, slo in self.slo_s:
            if name == lane:
                return slo
        return None


class AdmissionController:
    """Shed-or-admit decisions plus the service-time estimator they use."""

    def __init__(self, config: AdmissionConfig, num_replicas: int):
        self.config = config
        self.num_replicas = max(1, int(num_replicas))
        self.ewma_window_s: float | None = None   # measured s per window

    def observe_service(self, per_window_s: float) -> None:
        """Fold one batch's measured per-window service time into the EWMA."""
        if per_window_s <= 0:
            return
        if self.ewma_window_s is None:
            self.ewma_window_s = per_window_s
        else:
            a = self.config.ewma_alpha
            self.ewma_window_s = (1 - a) * self.ewma_window_s + a * per_window_s

    def estimated_wait_s(self, queued_windows: int) -> float | None:
        """Predicted queueing delay for work behind ``queued_windows``."""
        if self.ewma_window_s is None:
            return None
        return queued_windows * self.ewma_window_s / self.num_replicas

    def decide(self, lane: str, lane_depth: int,
               queued_windows: int) -> tuple[bool, str | None]:
        """(admit?, shed_reason) for one arrival."""
        if lane_depth >= self.config.max_depth:
            return False, "queue_full"
        slo = self.config.slo_for(lane)
        if slo is not None:
            est = self.estimated_wait_s(queued_windows)
            if est is not None and est > slo:
                return False, "slo"
        return True, None


class RequestQueue:
    """FIFO-within-lane, priority-across-lane waiting room."""

    def __init__(self, config: AdmissionConfig, controller: AdmissionController,
                 window_hw: tuple[int, int],
                 stride_hw: tuple[int, int] | None = None):
        self.config = config
        self.controller = controller
        self.window_hw = window_hw
        self.stride_hw = stride_hw
        self._lanes: dict[str, deque[InferenceRequest]] = {
            lane: deque() for lane in config.lanes}
        #: Windows the waiting requests will be cut into, summed.
        self.queued_windows = 0

    # -- state -------------------------------------------------------------

    def depth(self, lane: str | None = None) -> int:
        if lane is not None:
            return len(self._lanes[lane])
        return sum(len(q) for q in self._lanes.values())

    def _windows(self, request: InferenceRequest) -> int:
        ys, xs = window_grid(request.image.shape[1:], self.window_hw,
                             self.stride_hw)
        return len(ys) * len(xs)

    def oldest_enqueue_s(self) -> float | None:
        oldest = None
        for q in self._lanes.values():
            if q and (oldest is None or q[0].enqueued_s < oldest):
                oldest = q[0].enqueued_s
        return oldest

    # -- admission ---------------------------------------------------------

    def offer(self, request: InferenceRequest,
              now: float) -> tuple[bool, str | None]:
        """Admit ``request`` or shed it; returns (admitted, shed_reason)."""
        if request.lane not in self._lanes:
            raise ValueError(f"unknown lane {request.lane!r}; "
                             f"expected one of {self.config.lanes}")
        tel = get_active()
        admitted, reason = self.controller.decide(
            request.lane, len(self._lanes[request.lane]), self.queued_windows)
        if not admitted:
            if tel.enabled:
                tel.metrics.counter("serve.shed", lane=request.lane,
                                    reason=reason).inc()
                tel.tracer.instant("request_shed", category="serve",
                                   request=request.request_id,
                                   lane=request.lane, reason=reason)
            return False, reason
        request.enqueued_s = now
        self._lanes[request.lane].append(request)
        self.queued_windows += self._windows(request)
        if tel.enabled:
            tel.metrics.counter("serve.admitted", lane=request.lane).inc()
            tel.metrics.gauge("serve.queue_depth").set(self.depth())
        return True, None

    # -- draining ----------------------------------------------------------

    def pop(self, max_items: int) -> list[InferenceRequest]:
        """Up to ``max_items`` requests, higher lanes first, FIFO within."""
        out: list[InferenceRequest] = []
        for lane in self.config.lanes:
            q = self._lanes[lane]
            while q and len(out) < max_items:
                request = q.popleft()
                self.queued_windows -= self._windows(request)
                out.append(request)
        return out

    def drain(self) -> list[InferenceRequest]:
        """Remove and return everything still waiting (server shutdown)."""
        return self.pop(self.depth())
