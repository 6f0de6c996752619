"""The inference server: one event loop tying queue, batcher, pool, cache.

Discrete-event serving on a virtual clock.  Arrivals are admitted (or
shed) the moment the clock reaches them; the micro-batcher flushes on its
size/age triggers; batches dispatch to the least-loaded free replica; and
completions retire at ``dispatch + service_time``.  The *results* are real
(replicas run the actual model over the actual windows); only the
passage of time is virtual — by default each batch's virtual service time
is its **measured** compute wall time, so throughput and latency numbers
reflect the real cost of the work, while tests can pin a
:class:`FixedServiceTime` to make every queueing decision deterministic.

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
from .batcher import MicroBatcher
from .cache import TileCache
from .queue import AdmissionController, RequestQueue
from .replica import BatchResult, ReplicaPool
from .request import (DEFAULT_LANES, InferenceRequest, InferenceResponse,
                      validate_slo_s)

__all__ = ["ServeConfig", "FixedServiceTime", "measured_service",
           "InferenceServer", "ServeReport", "summarize"]


def measured_service(compute_s: float, n_requests: int,
                     n_windows: int) -> float:
    """Default service model: virtual time = measured compute wall time."""
    return compute_s


@dataclass(frozen=True)
class FixedServiceTime:
    """Deterministic service model for tests: affine in window count."""

    per_batch_s: float = 0.0
    per_window_s: float = 0.001

    def __call__(self, compute_s: float, n_requests: int,
                 n_windows: int) -> float:
        return self.per_batch_s + self.per_window_s * n_windows


@dataclass(frozen=True)
class ServeConfig:
    """Everything the server needs beyond the model itself.

    The queue, admission controller and micro-batcher all read their
    knobs from here.
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
                 service_model=None, model_key: str = "model-v0"):
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
        self.admission = AdmissionController(cfg)
        self.queue = RequestQueue(cfg, self.admission)
        self.batcher = MicroBatcher(cfg, self.queue)
        self.service_model = service_model or measured_service
        self.total_retries = 0
        self._cache_synced = {"hits": 0, "misses": 0, "evictions": 0}

    # -- the event loop ----------------------------------------------------

    def serve(self, requests: list[InferenceRequest]
              ) -> list[InferenceResponse]:
        """Drive every request to a terminal response, in virtual time.

        Returns one response per offered request, ordered by request id.
        """
        arrivals = sorted(requests,
                          key=lambda r: (r.arrival_s, r.request_id))
        responses: dict[int, InferenceResponse] = {}
        inflight: list = []     # heap: (completion_s, seq, batch, result, t0)
        seq = 0
        i = 0
        while i < len(arrivals) or self.queue.depth() or inflight:
            now = self.clock.now()
            progressed = False
            # Retire completions due at `now`.
            while inflight and inflight[0][0] <= now:
                comp_t, _, batch, result, dispatched = heapq.heappop(inflight)
                self._complete(batch, result, dispatched, comp_t, responses)
                progressed = True
            # Admit (or shed) arrivals due at `now`.
            while i < len(arrivals) and arrivals[i].arrival_s <= now:
                req = arrivals[i]
                i += 1
                admitted, reason = self.queue.offer(req, now)
                if not admitted:
                    responses[req.request_id] = InferenceResponse(
                        req.request_id, req.lane, "shed", req.arrival_s,
                        shed_reason=reason)
                progressed = True
            # Total pool loss: everything still owed fails loudly.
            if not self.pool.alive_replicas and (
                    self.queue.depth() or i < len(arrivals)):
                for req in self.queue.drain() + arrivals[i:]:
                    responses[req.request_id] = self._failed(
                        req, "no live replicas in the pool")
                i = len(arrivals)
                progressed = True
            # Dispatch while a batch is ready and a replica is free.
            while self.batcher.ready(now):
                if self.pool.free_replica(now) is None:
                    break
                batch = self.batcher.take(now)
                seq += 1
                self._dispatch(batch, now, seq, responses, inflight)
                progressed = True
            if progressed:
                continue
            # Nothing actionable at `now`: jump to the next event.
            candidates = []
            if i < len(arrivals):
                candidates.append(arrivals[i].arrival_s)
            if inflight:
                candidates.append(inflight[0][0])
            if self.queue.depth():
                deadline = self.batcher.next_deadline()
                if deadline is not None:
                    candidates.append(deadline)
            candidates = [t for t in candidates if t > now]
            if not candidates:
                # Nothing can ever progress: say who is stuck rather than
                # return a response list with holes in it.
                stranded = sorted(r.request_id for r in requests
                                  if r.request_id not in responses)
                raise ReproError(
                    f"serve loop stalled at t={now!r} with no future event; "
                    f"stranded request ids: {stranded}")
            self.clock.advance_to(min(candidates))
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
        duration = self.service_model(
            result.compute_s, len(batch), result.windows) + result.backoff_s
        completion = now + duration
        self.pool.replicas[result.replica_id].busy_until = completion
        heapq.heappush(inflight, (completion, seq, batch, result, now))
        if result.windows:
            self.admission.observe_service(duration / result.windows)
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
class LaneSummary:
    """Served-latency distribution for one priority lane."""

    served: int = 0
    shed: int = 0
    p50_ms: float = 0.0
    p99_ms: float = 0.0

    def as_dict(self) -> dict:
        return {"served": self.served, "shed": self.shed,
                "p50_ms": self.p50_ms, "p99_ms": self.p99_ms}


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
        """Admitted requests without a served response (must stay 0)."""
        return self.admitted - self.served

    def as_dict(self) -> dict:
        doc = {k: v for k, v in self.__dict__.items() if k != "lanes"}
        doc["lanes"] = {name: lane.as_dict()
                       for name, lane in self.lanes.items()}
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
    lanes: dict[str, LaneSummary] = {}
    for lane in server.config.lanes:
        lane_served = [r for r in served if r.lane == lane]
        summary = LaneSummary(
            served=len(lane_served),
            shed=sum(1 for r in shed if r.lane == lane))
        if lane_served:
            lat = np.asarray([r.latency_s for r in lane_served])
            p50, p99 = np.percentile(lat, [50, 99])
            summary.p50_ms = float(p50) * 1e3
            summary.p99_ms = float(p99) * 1e3
        lanes[lane] = summary
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
        admitted=len(served) + len(failed),
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
        batches=server.batcher.batches_formed,
        mean_batch_size=float(np.mean(sizes)) if sizes else 0.0,
        alive_replicas=pool.alive_ids)
