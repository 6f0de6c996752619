"""Priority-laned request queue with SLO-aware admission control.

The paper-scale serving story ("millions of users") lives or dies on what
happens at overload: an unbounded queue turns excess demand into unbounded
latency for *everyone*, while load shedding keeps the served fraction
inside its latency target.  The queue therefore has

* **priority lanes** (``interactive`` ahead of ``bulk``) — batches drain
  higher lanes first, FIFO within a lane;
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
through the active :mod:`repro.telemetry` session.  The lane layout,
depth cap and SLO targets are read from the server's
:class:`~repro.serve.ServeConfig`, which validates them.
"""
from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from ..telemetry import get_active
from .replica import window_grid
from .request import InferenceRequest

if TYPE_CHECKING:
    from .server import ServeConfig

__all__ = ["AdmissionController", "RequestQueue", "fold_service_ewma"]

SERVICE_EWMA_ALPHA = 0.2    # service-time estimator decay


def fold_service_ewma(ewma_s: float | None,
                      per_window_s: float) -> float | None:
    """Fold one measured per-window service time into an EWMA estimate.

    The serve admission controller and each fleet cell keep their
    service-time estimate with this one rule.
    """
    if per_window_s <= 0:
        return ewma_s
    if ewma_s is None:
        return per_window_s
    a = SERVICE_EWMA_ALPHA
    return (1 - a) * ewma_s + a * per_window_s


class AdmissionController:
    """Shed-or-admit decisions plus the service-time estimator they use."""

    def __init__(self, config: ServeConfig):
        self.config = config
        self.ewma_window_s: float | None = None   # measured s per window

    def observe_service(self, per_window_s: float) -> None:
        """Fold one batch's measured per-window service time into the EWMA."""
        self.ewma_window_s = fold_service_ewma(self.ewma_window_s,
                                               per_window_s)

    def estimated_wait_s(self, queued_windows: int) -> float | None:
        """Predicted queueing delay for work behind ``queued_windows``."""
        if self.ewma_window_s is None:
            return None
        return (queued_windows * self.ewma_window_s
                / self.config.num_replicas)

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

    def __init__(self, config: ServeConfig, controller: AdmissionController):
        self.config = config
        self.controller = controller
        self.window_hw = config.window_hw
        self.stride_hw = config.stride_hw
        self._lanes: dict[str, deque[InferenceRequest]] = {
            lane: deque() for lane in config.lanes}
        #: Windows the waiting requests will be cut into, summed.
        self.queued_windows = 0

    # -- state -------------------------------------------------------------

    def depth(self) -> int:
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
