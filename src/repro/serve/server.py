"""The inference server: one event loop over the queue, pool and cache.

Discrete-event serving on a virtual clock.  Arrivals are admitted (or
shed) the moment the clock reaches them; the queue's size/age triggers
form micro-batches; batches dispatch to the least-loaded free replica; and
completions retire at ``dispatch + service_time``.  The *results* are real
(replicas run the actual model over the actual windows); only the
passage of time is virtual — by default each batch's virtual service time
is its **measured** compute wall time, so throughput and latency numbers
reflect the real cost of the work, while tests pin ``service_window_s``
(seconds per window) to make every queueing decision deterministic.

This mirrors how the training side couples its simulators to telemetry:
spans land on the active session with virtual timestamps
(``tracer.emit``), counters cover every admission/shed/serve/fail
decision, and per-request latency histograms use the paper's
median + central-68% summary convention.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from ..errors import ReproError
from ..resilience import FaultInjector, FaultPlan, RetriesExhausted
from ..telemetry import SimulatedClock, get_active
from .cache import TileCache
from .queue import RequestQueue
from .replica import BatchResult, ReplicaPool
from .request import (DEFAULT_LANES, InferenceRequest, InferenceResponse,
                      lane_summary, validate_slo_s)

__all__ = ["ServeConfig", "InferenceServer", "ServeReport", "summarize"]


@dataclass(frozen=True)
class ServeConfig:
    """Everything the server needs beyond the model itself.

    The request queue reads its admission and batching knobs from here.
    """

    #: Priority lanes, highest first (not a field: every server uses them).
    lanes: ClassVar[tuple[str, ...]] = DEFAULT_LANES

    window_hw: tuple[int, int] = (8, 8)
    stride_hw: tuple[int, int] | None = None    # default: half-window overlap
    num_replicas: int = 2
    max_batch_size: int = 8         # batch size trigger
    max_wait_s: float = 0.002       # batch age trigger
    forward_batch: int = 32         # windows stacked per model call
    max_depth: int = 64             # per-lane queue cap (backpressure)
    #: Optional per-lane queueing-delay targets, e.g.
    #: ``(("interactive", 0.05),)``; lanes without an entry shed on depth
    #: only.
    slo_s: tuple[tuple[str, float], ...] = ()
    cache_budget_bytes: int = 32 << 20          # 0 disables the tile cache

    def __post_init__(self):
        if self.num_replicas < 1:
            raise ValueError("num_replicas must be >= 1")
        if self.cache_budget_bytes < 0:
            raise ValueError("cache_budget_bytes must be >= 0")
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.max_wait_s < 0:
            raise ValueError("max_wait_s must be >= 0")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        validate_slo_s(self.slo_s)

    def slo_for(self, lane: str) -> float | None:
        for name, slo in self.slo_s:
            if name == lane:
                return slo
        return None


class InferenceServer:
    """Admission -> micro-batching -> replica dispatch -> completion."""

    def __init__(self, model_factory, config: ServeConfig | None = None,
                 plan: FaultPlan | None = None,
                 service_window_s: float | None = None,
                 model_key: str = "model-v0"):
        self.config = config or ServeConfig()
        cfg = self.config
        self.clock = SimulatedClock()
        self.injector = FaultInjector(plan) if plan is not None else None
        self.cache = (TileCache(cfg.cache_budget_bytes, model_key=model_key)
                      if cfg.cache_budget_bytes else None)
        # Each replica serves the BN-folded, fusion-rewritten graph
        # (repro.framework.fusion); the caller's model is untouched.
        def frozen_model():
            model = model_factory()
            fz = getattr(model, "freeze_for_inference", None)
            return fz() if callable(fz) else model
        self.pool = ReplicaPool(
            frozen_model, cfg.num_replicas, cfg.window_hw,
            stride_hw=cfg.stride_hw, forward_batch=cfg.forward_batch,
            cache=self.cache, injector=self.injector)
        self.queue = RequestQueue(cfg)
        #: Virtual seconds per window; None charges measured compute time.
        self.service_window_s = service_window_s
        self.total_retries = 0
        #: Requests the last :meth:`serve` call owes a terminal response:
        #: every accepted offer, plus arrivals failed unoffered once the
        #: whole pool is dead.  Counted apart from the responses, so
        #: :attr:`ServeReport.lost_admitted` can see a missing one.
        self.admitted = 0
        self._cache_synced = {"hits": 0, "misses": 0, "evictions": 0}

    # -- the event loop ----------------------------------------------------

    def serve(self, requests: list[InferenceRequest]
              ) -> list[InferenceResponse]:
        """Drive every request to a terminal response, in virtual time.

        Returns one response per offered request, ordered by request id.
        """
        arrivals = sorted(requests,
                          key=lambda r: (r.arrival_s, r.request_id))
        n = len(arrivals)
        responses: dict[int, InferenceResponse] = {}
        inflight: list = []     # heap: (completion_s, seq, batch, result, t0)
        queue, pool = self.queue, self.pool
        inf = float("inf")
        seq = i = 0
        self.admitted = 0
        now = self.clock.now()
        while True:
            # One pass handles everything due at ``now``, in the fleet's
            # order; whatever it schedules lies at or after ``now``.
            # 1. Retire due completions.
            while inflight and inflight[0][0] <= now:
                comp_t, _, batch, result, dispatched = heapq.heappop(inflight)
                self._complete(batch, result, dispatched, comp_t, responses)
            # 2. Admit (or shed) due arrivals.
            while i < n and arrivals[i].arrival_s <= now:
                req = arrivals[i]
                i += 1
                admitted, reason = queue.offer(req, now)
                if admitted:
                    self.admitted += 1
                else:
                    responses[req.request_id] = InferenceResponse(
                        req.request_id, req.lane, "shed", req.arrival_s,
                        shed_reason=reason)
            # 3. Dispatch while a batch is ready and a replica is free.
            while queue.ready(now) and pool.free_replica(now) is not None:
                seq += 1
                self._dispatch(queue.take(now), now, seq, responses,
                               inflight)
            # 4. Total pool loss: everything still owed fails loudly.  After
            # dispatch, because a dispatch can kill the last replica.
            if not pool.alive_replicas and (queue.depth() or i < n):
                for req in queue.drain() + arrivals[i:]:
                    responses[req.request_id] = self._failed(
                        req, "no live replicas in the pool")
                self.admitted += n - i
                i = n
            if i == n and not inflight and not queue.depth():
                break
            # Jump to the next event: the earliest of the next arrival, the
            # inflight head and a future age deadline.
            t = arrivals[i].arrival_s if i < n else inf
            if inflight and inflight[0][0] < t:
                t = inflight[0][0]
            deadline = queue.deadline_s
            if deadline is not None and now < deadline < t:
                t = deadline
            if t == inf:
                # Nothing can ever progress: say who is stuck rather than
                # return a response list with holes in it.
                stranded = sorted(r.request_id for r in requests
                                  if r.request_id not in responses)
                raise ReproError(
                    f"serve loop stalled at t={now!r} with no future event; "
                    f"stranded request ids: {stranded}")
            now = self.clock.advance_to(t)
        return [responses[r.request_id] for r in
                sorted(requests, key=lambda r: r.request_id)]

    # -- internals ---------------------------------------------------------

    def _failed(self, req: InferenceRequest, error: str) -> InferenceResponse:
        tel = get_active()
        if tel.enabled:
            tel.metrics.counter("serve.failed", lane=req.lane).inc()
        return InferenceResponse(req.request_id, req.lane, "failed",
                                 req.arrival_s, error=error)

    def _dispatch(self, batch: list[InferenceRequest], now: float, seq: int,
                  responses: dict, inflight: list) -> None:
        tel = get_active()
        try:
            result = self.pool.execute(batch, now)
        except RetriesExhausted as exc:
            for req in batch:
                responses[req.request_id] = self._failed(req, repr(exc))
            return
        finally:
            self._sync_cache_counters(tel)
        service = (result.compute_s if self.service_window_s is None
                   else self.service_window_s * result.windows)
        duration = service + result.backoff_s
        completion = now + duration
        self.pool.replicas[result.replica_id].busy_until = completion
        heapq.heappush(inflight, (completion, seq, batch, result, now))
        if result.windows:
            self.queue.observe_service(duration / result.windows)
        if result.retries:
            self.total_retries += result.retries
            if tel.enabled:
                tel.metrics.counter("serve.dispatch_retries").inc(
                    result.retries)

    def _complete(self, batch: list[InferenceRequest], result: BatchResult,
                  dispatched: float, comp_t: float, responses: dict) -> None:
        tel = get_active()
        tracer = tel.tracer
        batch_span = 0
        if tel.enabled:
            batch_span = tracer.emit(
                "serve_batch", start_s=tracer.epoch + dispatched,
                duration_s=comp_t - dispatched, category="serve",
                lane=result.replica_id, replica=result.replica_id,
                requests=len(batch), windows=result.windows,
                retries=result.retries)
        for req, class_map in zip(batch, result.class_maps):
            resp = InferenceResponse(
                req.request_id, req.lane, "served", req.arrival_s,
                completed_s=comp_t, replica_id=result.replica_id,
                batch_size=len(batch), class_map=class_map)
            responses[req.request_id] = resp
            if tel.enabled:
                tel.metrics.counter("serve.served", lane=req.lane).inc()
                tel.metrics.histogram("serve.latency_s",
                                      lane=req.lane).observe(resp.latency_s)
                if tel.streams is not None:
                    # Streamed at the request's *virtual* completion time so
                    # windowed latency/SLO-burn rules see server-clock time.
                    tel.streams.observe("serve.latency_s", resp.latency_s,
                                        t=comp_t, lane=req.lane)
                tracer.emit(
                    "request", start_s=tracer.epoch + req.arrival_s,
                    duration_s=resp.latency_s, category="serve",
                    lane=result.replica_id, parent_id=batch_span,
                    request=req.request_id, req_lane=req.lane)

    def _sync_cache_counters(self, tel) -> None:
        """Mirror cache-stat deltas into telemetry counters."""
        if self.cache is None or not tel.enabled:
            return
        stats = self.cache.stats
        for name, current in (("hits", stats.hits),
                              ("misses", stats.misses),
                              ("evictions", stats.evictions)):
            delta = current - self._cache_synced[name]
            if delta:
                tel.metrics.counter(f"serve.cache.{name}").inc(delta)
                self._cache_synced[name] = current


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


@dataclass
class ServeReport:
    """End-of-run accounting over one workload's responses."""

    offered: int
    admitted: int
    served: int
    shed: int
    failed: int
    shed_by_reason: dict
    lanes: dict
    makespan_s: float
    throughput_rps: float
    cache: dict | None
    replica_failures: int
    dispatch_retries: int
    batches: int
    mean_batch_size: float
    alive_replicas: list = field(default_factory=list)

    @property
    def lost_admitted(self) -> int:
        """Admitted requests without a terminal response (must stay 0)."""
        return self.admitted - self.served - self.failed

    def as_dict(self) -> dict:
        doc = dict(self.__dict__)
        doc["lost_admitted"] = self.lost_admitted
        if self.cache is not None:
            doc["cache_hit_rate"] = self.cache.get("hit_rate", 0.0)
        return doc


def summarize(responses: list[InferenceResponse],
              server: InferenceServer) -> ServeReport:
    """Fold a run's responses (plus server state) into one report."""
    served = [r for r in responses if r.status == "served"]
    shed = [r for r in responses if r.status == "shed"]
    failed = [r for r in responses if r.status == "failed"]
    shed_by_reason: dict[str, int] = {}
    for r in shed:
        reason = r.shed_reason or "unknown"
        shed_by_reason[reason] = shed_by_reason.get(reason, 0) + 1
    lanes = {lane: lane_summary(
                 [r.latency_s for r in served if r.lane == lane],
                 sum(1 for r in shed if r.lane == lane))
             for lane in server.config.lanes}
    makespan = 0.0
    throughput = 0.0
    if served:
        start = min(r.arrival_s for r in served)
        end = max(r.completed_s for r in served)
        makespan = end - start
        throughput = len(served) / makespan if makespan > 0 else 0.0
    pool = server.pool
    sizes = [r.batch_size for r in served]
    return ServeReport(
        offered=len(responses),
        admitted=server.admitted,
        served=len(served), shed=len(shed), failed=len(failed),
        shed_by_reason=shed_by_reason,
        lanes=lanes, makespan_s=makespan, throughput_rps=throughput,
        # `is not None`, not truthiness: TileCache defines __len__, so a
        # cache that never got a put (e.g. every request shed) is falsy
        # and would report "no cache configured" on exactly the failure
        # paths where the stats matter.
        cache=(server.cache.stats.as_dict()
               if server.cache is not None else None),
        replica_failures=len(pool.dead_ids),
        dispatch_retries=server.total_retries,
        batches=server.queue.batches_formed,
        mean_batch_size=float(np.mean(sizes)) if sizes else 0.0,
        alive_replicas=pool.alive_ids)
