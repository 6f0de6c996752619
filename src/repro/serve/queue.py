"""The server's one waiting room: admission, priority lanes, batch triggers.

The paper-scale serving story ("millions of users") lives or dies on what
happens at overload: an unbounded queue turns excess demand into unbounded
latency for *everyone*, while load shedding keeps the served fraction
inside its latency target.  The queue therefore has

* **priority lanes** (``interactive`` ahead of ``bulk``) — batches drain
  higher lanes first, FIFO within a lane;
* **depth backpressure** — each lane holds at most ``max_depth`` waiting
  requests; an arrival past the cap is shed with reason ``queue_full``;
* **SLO-aware shedding** — with a per-lane ``slo_s`` target, the queue
  estimates the arrival's queueing delay from the windows already waiting
  (each request counts the tiles the replicas will cut from its snapshot)
  and an EWMA of measured per-window service time, and sheds with reason
  ``slo`` when the estimate exceeds the target.  A request that would miss
  its SLO anyway is cheaper to refuse at the door than to compute and
  deliver late;
* **micro-batch triggers** — the head becomes a batch when
  ``max_batch_size`` requests are waiting or the oldest has waited
  ``max_wait_s``, whichever comes first.  Per-request inference pays the
  full per-call overhead for one window of data; holding arrivals just
  long enough to coalesce them trades a bounded queueing delay for a
  multiplicative throughput win (``bench_serving`` pins >= 3x at batch
  size 8).

Every decision is counted (``serve.admitted``, ``serve.shed{lane,reason}``,
``serve.batches``) through the active :mod:`repro.telemetry` session.  The
lane layout, depth cap, SLO targets and batch triggers are read from the
server's :class:`~repro.serve.ServeConfig`, which validates them.  All
timing reads the server's clock, so admission and batch formation are
deterministic under a :class:`repro.telemetry.SimulatedClock`.
"""
from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from ..telemetry import get_active
from .replica import request_grid
from .request import InferenceRequest

if TYPE_CHECKING:
    from .server import ServeConfig

__all__ = ["RequestQueue", "fold_service_ewma"]

SERVICE_EWMA_ALPHA = 0.2    # service-time estimator decay


def fold_service_ewma(ewma_s: float | None,
                      per_window_s: float) -> float | None:
    """Fold one measured per-window service time into an EWMA estimate.

    The serve queue and each fleet cell keep their service-time estimate
    with this one rule.
    """
    if per_window_s <= 0:
        return ewma_s
    if ewma_s is None:
        return per_window_s
    a = SERVICE_EWMA_ALPHA
    return (1 - a) * ewma_s + a * per_window_s


class RequestQueue:
    """FIFO-within-lane, priority-across-lane waiting room."""

    def __init__(self, config: ServeConfig):
        self.config = config
        self._lanes: dict[str, deque[InferenceRequest]] = {
            lane: deque() for lane in config.lanes}
        #: Windows the waiting requests will be cut into, summed.
        self.queued_windows = 0
        self.ewma_window_s: float | None = None   # measured s per window
        #: Absolute time the age trigger fires; None while the queue is
        #: empty.  Offers arrive in time order, so only a pop moves it.
        self.deadline_s: float | None = None
        self.batches_formed = 0

    # -- state -------------------------------------------------------------

    def depth(self) -> int:
        return sum(len(q) for q in self._lanes.values())

    def _windows(self, request: InferenceRequest) -> int:
        ys, xs = request_grid(request, self.config.window_hw,
                              self.config.stride_hw)
        return len(ys) * len(xs)

    # -- admission ---------------------------------------------------------

    def observe_service(self, per_window_s: float) -> None:
        """Fold one batch's measured per-window service time into the EWMA."""
        self.ewma_window_s = fold_service_ewma(self.ewma_window_s,
                                               per_window_s)

    def estimated_wait_s(self) -> float | None:
        """Predicted queueing delay behind every window now waiting."""
        if self.ewma_window_s is None:
            return None
        return (self.queued_windows * self.ewma_window_s
                / self.config.num_replicas)

    def offer(self, request: InferenceRequest,
              now: float) -> tuple[bool, str | None]:
        """Admit ``request`` or shed it; returns (admitted, shed_reason)."""
        lane = self._lanes.get(request.lane)
        if lane is None:
            raise ValueError(f"unknown lane {request.lane!r}; "
                             f"expected one of {self.config.lanes}")
        tel = get_active()
        reason = None
        if len(lane) >= self.config.max_depth:
            reason = "queue_full"
        else:
            slo = self.config.slo_for(request.lane)
            est = self.estimated_wait_s() if slo is not None else None
            if est is not None and est > slo:
                reason = "slo"
        if reason is not None:
            if tel.enabled:
                tel.metrics.counter("serve.shed", lane=request.lane,
                                    reason=reason).inc()
                tel.tracer.instant("request_shed", category="serve",
                                   request=request.request_id,
                                   lane=request.lane, reason=reason)
            return False, reason
        request.enqueued_s = now
        lane.append(request)
        if self.deadline_s is None:
            self.deadline_s = now + self.config.max_wait_s
        self.queued_windows += self._windows(request)
        if tel.enabled:
            tel.metrics.counter("serve.admitted", lane=request.lane).inc()
            tel.metrics.gauge("serve.queue_depth").set(self.depth())
        return True, None

    # -- batch triggers ----------------------------------------------------

    def ready(self, now: float) -> bool:
        """True when a batch should be dispatched at time ``now``."""
        depth = self.depth()
        if depth == 0:
            return False
        if depth >= self.config.max_batch_size:
            return True
        # Compare against the very expression the event loop advances the
        # clock to: ``(t + wait) - t`` can round below ``wait``, so testing
        # the age instead would never fire at the deadline itself.
        return now >= self.deadline_s

    # -- draining ----------------------------------------------------------

    def pop(self, max_items: int) -> list[InferenceRequest]:
        """Up to ``max_items`` requests, higher lanes first, FIFO within."""
        out: list[InferenceRequest] = []
        for q in self._lanes.values():      # lanes are priority-ordered
            while q and len(out) < max_items:
                request = q.popleft()
                self.queued_windows -= self._windows(request)
                out.append(request)
        heads = [q[0].enqueued_s for q in self._lanes.values() if q]
        self.deadline_s = (min(heads) + self.config.max_wait_s
                           if heads else None)
        return out

    def take(self, now: float) -> list[InferenceRequest]:
        """Pop the next batch (priority order); records batch-size metrics."""
        batch = self.pop(self.config.max_batch_size)
        if batch:
            self.batches_formed += 1
            tel = get_active()
            if tel.enabled:
                tel.metrics.counter("serve.batches").inc()
                tel.metrics.histogram("serve.batch_size").observe(len(batch))
                for req in batch:
                    tel.metrics.histogram(
                        "serve.queue_wait_s", lane=req.lane).observe(
                            now - (req.enqueued_s or now))
        return batch

    def drain(self) -> list[InferenceRequest]:
        """Remove and return everything still waiting (server shutdown)."""
        return self.pop(self.depth())
