"""The fleet server: cells, sharded replicas, autoscaling, spillover.

One discrete-event loop generalizes :class:`repro.serve.InferenceServer`
across a *fleet*: each **cell** owns a set of replicas behind a
consistent-hash shard map (:class:`~.hashring.HashRing`), requests route
to the replica that owns their tile keys (so its
:class:`~repro.serve.cache.TileCache` shard stays hot), and a
telemetry-driven :class:`~.autoscaler.Autoscaler` grows/shrinks each
cell at every control tick.  Cross-cell routing kicks in when a cell's
estimated wait blows the lane's SLO budget: the request **spills** to
the cheapest cell still inside budget, and is shed only when every cell
is out of budget — overload degrades to remote (cold-cache) service
before it degrades to refusals.

Scale at the paper's level ("millions of users") forces a columnar
request format: :class:`Replay` carries a million virtual requests as a
handful of numpy arrays, and :class:`FleetResult` records the terminal
outcome of each the same way, so the whole replay fits comfortably in
memory and summarizes with vectorized numpy.  Everything runs on a
:class:`~repro.telemetry.SimulatedClock`: same replay, same seed — same
admissions, same scale events, same report, byte for byte.

Service time is a calibrated parametric model (per-batch overhead +
per-window compute, with cache hits ~10x cheaper than misses), not a
measured model forward — at 10^6 requests the routing/caching/scaling
*dynamics* are the object under test, and the per-window constants are
taken from the measured ``bench_serving`` numbers.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from ...resilience import FaultPlan
from ...telemetry import SimulatedClock, Telemetry, get_active
from ..cache import TileCache
from ..queue import fold_service_ewma
from ..request import DEFAULT_LANES
from .autoscaler import WARMUP_S, Autoscaler, AutoscalerConfig
from .hashring import HashRing, remap_fraction

__all__ = ["FleetRequest", "Replay", "FleetConfig", "FleetReplica",
           "ScaleEventRecord", "FleetResult", "FleetServer",
           "FleetReport", "summarize_fleet",
           "STATUS_SERVED", "STATUS_SHED", "STATUS_FAILED"]

# Terminal statuses in FleetResult.status (0 = still pending, i.e. lost).
STATUS_SERVED = 1
STATUS_SHED = 2
STATUS_FAILED = 3

_SHED_REASONS = ("", "queue_full", "slo")
_MAX_WINDOWS = 64           # tile-key packing: key*64 + window index
_KEY_SAMPLE_CAP = 20_000    # per-cell key sample for remap measurement
_HIT_TRACE_TICKS = 5        # trailing ticks defining "current" hit rate
_RECOVERY_TICKS = 3         # rolling ticks that must clear the bar

# Batching triggers and per-replica, per-lane queue cap.
_MAX_BATCH_SIZE = 8
_MAX_WAIT_S = 0.004
_MAX_DEPTH = 512
# The parametric service model: per-batch dispatch overhead, per uncached
# window compute, and a cache hit at 10% of a miss.
_SERVICE_BASE_S = 0.002
_SERVICE_WINDOW_S = 0.004
_HIT_WINDOW_S = 0.1 * _SERVICE_WINDOW_S
_TILE_BYTES = 4096          # accounted bytes of one cached tile
_WINDOW_S = 1.0             # control tick = streaming window


@dataclass(frozen=True)
class FleetRequest:
    """One virtual request (the friendly, non-columnar view)."""

    request_id: int
    key: int                    # snapshot/tile-group content id
    lane: str = "interactive"
    cell: str = "cell0"         # home cell (client locality)
    arrival_s: float = 0.0
    windows: int = 4            # tile windows this request decomposes into


class Replay:
    """A columnar request stream: one numpy column per request field.

    A million :class:`FleetRequest` objects would cost hundreds of MB of
    python object headers; the same stream as six arrays costs ~20 MB
    and iterates by index.  ``lanes``/``cells`` are the vocabularies the
    int columns index into.
    """

    def __init__(self, arrival_s: np.ndarray, key: np.ndarray,
                 lane: np.ndarray, cell: np.ndarray, windows: np.ndarray,
                 lanes: tuple[str, ...], cells: tuple[str, ...]):
        n = len(arrival_s)
        if not (len(key) == len(lane) == len(cell) == len(windows) == n):
            raise ValueError("replay columns must share one length")
        if n and np.any(np.diff(arrival_s) < 0):
            raise ValueError("arrival_s must be sorted")
        if windows.size and (windows.min() < 1
                             or windows.max() > _MAX_WINDOWS):
            raise ValueError(f"windows must be in [1, {_MAX_WINDOWS}]")
        self.arrival_s = np.ascontiguousarray(arrival_s, dtype=np.float64)
        self.key = np.ascontiguousarray(key, dtype=np.int64)
        self.lane = np.ascontiguousarray(lane, dtype=np.int16)
        self.cell = np.ascontiguousarray(cell, dtype=np.int16)
        self.windows = np.ascontiguousarray(windows, dtype=np.int16)
        self.lanes = tuple(lanes)
        self.cells = tuple(cells)

    def __len__(self) -> int:
        return len(self.arrival_s)

    def request(self, i: int) -> FleetRequest:
        """Materialise request ``i`` as a :class:`FleetRequest`."""
        return FleetRequest(
            request_id=i, key=int(self.key[i]),
            lane=self.lanes[self.lane[i]], cell=self.cells[self.cell[i]],
            arrival_s=float(self.arrival_s[i]),
            windows=int(self.windows[i]))

    @classmethod
    def from_requests(cls, requests, lanes=None, cells=None) -> "Replay":
        """Build a replay from explicit :class:`FleetRequest` objects."""
        reqs = sorted(requests, key=lambda r: (r.arrival_s, r.request_id))
        lanes = tuple(lanes if lanes is not None
                      else dict.fromkeys(r.lane for r in reqs))
        cells = tuple(cells if cells is not None
                      else sorted(set(r.cell for r in reqs)))
        return cls(
            arrival_s=np.array([r.arrival_s for r in reqs]),
            key=np.array([r.key for r in reqs], dtype=np.int64),
            lane=np.array([lanes.index(r.lane) for r in reqs]),
            cell=np.array([cells.index(r.cell) for r in reqs]),
            windows=np.array([r.windows for r in reqs]),
            lanes=lanes, cells=cells)


@dataclass(frozen=True)
class FleetConfig:
    """Fleet topology, cache budget, routing, and autoscaling knobs."""

    cells: tuple[str, ...] = ("cell0",)
    initial_replicas: int = 2       # per cell
    #: Per-lane estimated-wait budgets; a request whose home-cell wait
    #: blows the budget spills to the cheapest in-budget cell, and sheds
    #: with reason ``slo`` only when no cell is in budget.
    slo_s: tuple[tuple[str, float], ...] = (("interactive", 0.25),)
    cache_budget_bytes: int = 4 << 20       # per replica
    sharded: bool = True            # False: least-loaded routing (ablation)
    spillover: bool = True
    autoscaler: AutoscalerConfig | None = field(
        default_factory=AutoscalerConfig)   # None pins the initial size

    def __post_init__(self):
        if not self.cells or len(set(self.cells)) != len(self.cells):
            raise ValueError("cells must be non-empty and unique")
        if self.initial_replicas < 1:
            raise ValueError("initial_replicas must be >= 1")
        for lane, slo in self.slo_s:
            if lane not in DEFAULT_LANES:
                raise ValueError(f"slo for unknown lane {lane!r}")
            if slo <= 0:
                raise ValueError("slo_s targets must be positive")


class FleetReplica:
    """One shard-owning replica: queues, cache shard, scheduling state."""

    __slots__ = ("replica_id", "cell", "cache", "added_s", "warmup_s",
                 "alive", "draining", "busy_until", "queues", "queued",
                 "queued_windows", "epoch", "inflight", "served", "batches",
                 "failed_reason")

    def __init__(self, replica_id: int, cell: str, num_lanes: int,
                 cache_budget: int, added_s: float = float("-inf"),
                 warmup_s: float = 0.0):
        from collections import deque

        self.replica_id = replica_id
        self.cell = cell
        self.cache = TileCache(cache_budget, model_key=f"replica{replica_id}")
        self.added_s = added_s
        self.warmup_s = warmup_s
        self.alive = True
        self.draining = False
        self.busy_until = 0.0
        self.queues = tuple(deque() for _ in range(num_lanes))
        self.queued = 0
        self.queued_windows = 0
        self.epoch = 0              # increments per dispatch (stale events)
        self.inflight: list[int] | None = None
        self.served = 0
        self.batches = 0
        self.failed_reason: str | None = None

    @property
    def routable(self) -> bool:
        return self.alive and not self.draining

    def ramp_fraction(self, now: float) -> float:
        """Admitted key fraction during warm-up (1.0 once fully warm)."""
        if self.warmup_s <= 0:
            return 1.0
        return min(1.0, max(0.0, (now - self.added_s) / self.warmup_s))


@dataclass
class ScaleEventRecord:
    """One scale-out/scale-in/kill, with its measured cache consequences."""

    t: float
    cell: str
    kind: str                   # "grow" | "shrink" | "kill"
    replica: int
    replicas_after: int
    remap_fraction: float       # sampled keys whose owner changed
    sampled_keys: int
    pre_hit_rate: float         # trailing hit rate just before the event
    recovered_s: float | None = None    # first time hit rate re-cleared
    recovery_hit_rate: float | None = None

    def as_dict(self) -> dict:
        return {
            "t": self.t, "cell": self.cell, "kind": self.kind,
            "replica": self.replica, "replicas_after": self.replicas_after,
            "remap_fraction": self.remap_fraction,
            "sampled_keys": self.sampled_keys,
            "pre_hit_rate": self.pre_hit_rate,
            "recovered_s": self.recovered_s,
            "recovery_hit_rate": self.recovery_hit_rate,
        }


class FleetResult:
    """Columnar terminal outcomes, one row per offered request."""

    def __init__(self, n: int):
        self.status = np.zeros(n, dtype=np.int8)
        self.completed_s = np.full(n, np.nan)
        self.replica = np.full(n, -1, dtype=np.int32)
        self.served_cell = np.full(n, -1, dtype=np.int16)
        self.spilled = np.zeros(n, dtype=bool)
        self.shed_reason = np.zeros(n, dtype=np.int8)

    def __len__(self) -> int:
        return len(self.status)

    def response(self, i: int) -> dict:
        """Row ``i`` as a dict (tests and debugging)."""
        return {
            "request_id": i,
            "status": ("pending", "served", "shed", "failed")[self.status[i]],
            "completed_s": (None if np.isnan(self.completed_s[i])
                            else float(self.completed_s[i])),
            "replica": int(self.replica[i]),
            "served_cell": int(self.served_cell[i]),
            "spilled": bool(self.spilled[i]),
            "shed_reason": _SHED_REASONS[self.shed_reason[i]] or None,
        }


class _Cell:
    """Runtime state for one cell: shard map, replicas, estimators."""

    __slots__ = ("name", "index", "ring", "replicas", "ewma_window_s",
                 "keys_seen", "hit_trace", "last_hits", "last_misses",
                 "c_arrivals", "c_served", "c_spill", "c_retries",
                 "c_shed", "g_queue", "g_service", "g_replicas",
                 "g_hit_rate")

    def __init__(self, name: str, index: int, metrics):
        self.name = name
        self.index = index
        self.ring = HashRing(salt=name)
        self.replicas: dict[int, FleetReplica] = {}
        self.ewma_window_s: float | None = None
        self.keys_seen: set[int] = set()
        self.hit_trace: list[tuple[float, int, int]] = []  # (t, dh, dm)
        self.last_hits = 0
        self.last_misses = 0
        # Cached instrument handles: one dict lookup at build time, one
        # method call per event on the 10^6-request hot path.
        self.c_arrivals = metrics.counter("fleet.arrivals", cell=name)
        self.c_served = metrics.counter("fleet.served", cell=name)
        self.c_spill = metrics.counter("fleet.spillover", cell=name)
        self.c_retries = metrics.counter("fleet.retries", cell=name)
        self.c_shed = {reason: metrics.counter("fleet.shed", cell=name,
                                               reason=reason)
                       for reason in _SHED_REASONS[1:]}
        self.g_queue = metrics.gauge("fleet.queue_windows", cell=name)
        self.g_service = metrics.gauge("fleet.service_ms", cell=name)
        self.g_replicas = metrics.gauge("fleet.replicas", cell=name)
        self.g_hit_rate = metrics.gauge("fleet.cache.hit_rate", cell=name)

    # -- replica membership --------------------------------------------------

    def live(self) -> list[FleetReplica]:
        return [r for r in self.replicas.values() if r.routable]

    def cache_totals(self) -> tuple[int, int]:
        hits = misses = 0
        for rep in self.replicas.values():
            hits += rep.cache.stats.hits
            misses += rep.cache.stats.misses
        return hits, misses

    def trailing_hit_rate(self, ticks: int = _HIT_TRACE_TICKS) -> float:
        tail = self.hit_trace[-ticks:]
        hits = sum(h for _, h, _ in tail)
        total = hits + sum(m for _, _, m in tail)
        return hits / total if total else 0.0


class FleetServer:
    """Discrete-event serving across autoscaled, sharded cells."""

    def __init__(self, config: FleetConfig | None = None,
                 clock: SimulatedClock | None = None,
                 plan: FaultPlan | None = None):
        self.config = config or FleetConfig()
        cfg = self.config
        self.clock = clock or SimulatedClock()
        session = get_active()
        # Autoscaling and hit-rate tracking need live instruments even
        # when no session is activated; a private enabled session keeps
        # the fleet self-contained without touching the global state.
        self.tel = (session if session.enabled
                    else Telemetry(enabled=True, clock=self.clock))
        self.streams = self.tel.attach_streams(window_s=_WINDOW_S)
        if self.tel.health is None:
            from ...telemetry.health import fleet_health_rules

            self.tel.attach_health(rules=fleet_health_rules())
        self.health = self.tel.health
        self.autoscaler = (Autoscaler(cfg.autoscaler)
                           if cfg.autoscaler is not None else None)
        if self.autoscaler is not None:
            self.autoscaler.subscribe(self.streams)
        self.cells: dict[str, _Cell] = {
            name: _Cell(name, i, self.tel.metrics)
            for i, name in enumerate(cfg.cells)}
        self._cell_order = list(self.cells.values())
        self.replicas: dict[int, FleetReplica] = {}
        self._next_replica = 0
        self.scale_events: list[ScaleEventRecord] = []
        self.total_retries = 0
        self._slo_by_lane = [dict(cfg.slo_s).get(lane)
                             for lane in DEFAULT_LANES]
        # One shared tile payload: the cache accounts bytes per entry, and
        # every tile is the same logical size, so one array serves all.
        self._tile_value = np.zeros(_TILE_BYTES // 4, dtype=np.float32)
        kills = [(float(s.step), int(s.rank))
                 for s in (plan.of_kind("rank_fail") if plan else ())]
        self._kills = sorted(kills)
        for name in cfg.cells:
            for _ in range(cfg.initial_replicas):
                self._add_replica(self.cells[name], 0.0, warm=False,
                                  record=False)

    # -- replica lifecycle ---------------------------------------------------

    def _add_replica(self, cell: _Cell, now: float, warm: bool = True,
                     record: bool = True) -> FleetReplica:
        cfg = self.config
        warmup = WARMUP_S if warm and self.autoscaler is not None else 0.0
        rep = FleetReplica(
            self._next_replica, cell.name, len(DEFAULT_LANES),
            cfg.cache_budget_bytes,
            added_s=now if warm else float("-inf"),
            warmup_s=warmup)
        rep.busy_until = now
        self._next_replica += 1
        self.replicas[rep.replica_id] = rep
        cell.replicas[rep.replica_id] = rep
        sample = cell.keys_seen
        before = cell.ring.assignment(sample) if record and sample else {}
        cell.ring.add(rep.replica_id)
        if record:
            after = cell.ring.assignment(sample) if sample else {}
            self._record_scale(cell, now, "grow", rep.replica_id,
                               before, after)
        return rep

    def _remove_replica(self, cell: _Cell, rep: FleetReplica, now: float,
                        kind: str) -> None:
        """Shrink (graceful drain) or kill (abrupt) one replica."""
        sample = cell.keys_seen
        before = cell.ring.assignment(sample) if sample else {}
        cell.ring.remove(rep.replica_id)
        after = cell.ring.assignment(sample) if sample else {}
        queued = [i for q in rep.queues for i in q]
        for q in rep.queues:
            q.clear()
        rep.queued = 0
        rep.queued_windows = 0
        if kind == "kill":
            rep.alive = False
            rep.draining = False
            rep.failed_reason = "injected replica failure"
            inflight = rep.inflight or []
            rep.inflight = None
            rep.epoch += 1          # voids its pending completion event
            if inflight:
                self.total_retries += len(inflight)
                cell.c_retries.inc(len(inflight))
            queued = inflight + queued
        elif rep.inflight is not None:
            rep.draining = True     # in-flight batch completes, then idles
        else:                       # idle: nothing to drain, retire now
            rep.alive = False
            rep.failed_reason = "scaled in"
        self._record_scale(cell, now, kind, rep.replica_id, before, after)
        if self.tel.enabled:
            self.tel.tracer.instant(
                "replica_failed" if kind == "kill" else "replica_drained",
                category="fleet", cell=cell.name, replica=rep.replica_id)
        # Survivors absorb the displaced work (DistributedTrainer.shrink
        # in reverse order: routing first, then the backlog).
        for i in queued:
            self._enqueue_admitted(i, now)

    def _record_scale(self, cell: _Cell, now: float, kind: str,
                      replica: int, before: dict, after: dict) -> None:
        self.scale_events.append(ScaleEventRecord(
            t=now, cell=cell.name, kind=kind, replica=replica,
            replicas_after=len(cell.live()),
            remap_fraction=remap_fraction(before, after),
            sampled_keys=len(before),
            pre_hit_rate=cell.trailing_hit_rate()))
        if self.tel.enabled:
            self.tel.tracer.instant(
                "fleet_scale", category="fleet", kind=kind,
                cell=cell.name, replica=replica,
                replicas=len(cell.live()))

    # -- routing -------------------------------------------------------------

    def _owner(self, cell: _Cell, key: int, now: float
               ) -> FleetReplica | None:
        """Shard owner for ``key``, honouring the warm-up admission ramp."""
        if not self.config.sharded:
            live = cell.live()
            if not live:
                return None
            return min(live, key=lambda r: (r.queued_windows, r.busy_until,
                                            r.replica_id))
        owner = cell.ring.assign(key)
        if owner is None:
            return None
        rep = cell.replicas[owner]
        frac = rep.ramp_fraction(now)
        if frac < 1.0 and cell.ring.key_fraction(key) >= frac:
            prev = cell.ring.assign(key, exclude=(owner,))
            if prev is not None:
                return cell.replicas[prev]
        return rep

    def _estimated_wait(self, cell: _Cell, rep: FleetReplica,
                        now: float) -> float:
        service = cell.ewma_window_s
        if service is None:
            service = _SERVICE_WINDOW_S
        return (max(rep.busy_until - now, 0.0)
                + rep.queued_windows * service)

    def _admit(self, i: int, now: float) -> None:
        """Route request ``i``: home shard, spillover, or shed."""
        cfg = self.config
        home = self._cell_order[self._req_cell[i]]
        home.c_arrivals.inc()
        key = int(self._req_key[i])
        if len(home.keys_seen) < _KEY_SAMPLE_CAP:
            home.keys_seen.add(key)
        lane = self._req_lane[i]
        slo = self._slo_by_lane[lane]
        rep = self._owner(home, key, now)
        blown = depth_full = False
        if rep is not None:
            depth_full = len(rep.queues[lane]) >= _MAX_DEPTH
            blown = (slo is not None
                     and self._estimated_wait(home, rep, now) > slo)
        if rep is not None and not depth_full and not blown:
            self._enqueue(rep, i, now)
            return
        # Home cell is dead, full, or out of budget: try the other cells.
        best = None
        best_wait = float("inf")
        if cfg.spillover:
            for cell in self._cell_order:
                if cell is home:
                    continue
                cand = self._owner(cell, key, now)
                if cand is None or len(cand.queues[lane]) >= _MAX_DEPTH:
                    continue
                wait = self._estimated_wait(cell, cand, now)
                if slo is not None and wait > slo:
                    continue
                if wait < best_wait:
                    best, best_wait = cand, wait
        if best is not None:
            self._result.spilled[i] = True
            home.c_spill.inc()
            self._enqueue(best, i, now)
            return
        if rep is None and all(not c.live() for c in self._cell_order):
            self._result.status[i] = STATUS_FAILED
            return
        reason = "slo" if blown else "queue_full"
        self._result.status[i] = STATUS_SHED
        self._result.shed_reason[i] = _SHED_REASONS.index(reason)
        home.c_shed[reason].inc()

    def _enqueue(self, rep: FleetReplica, i: int, now: float) -> None:
        rep.queues[self._req_lane[i]].append(i)
        rep.queued += 1
        rep.queued_windows += self._req_windows[i]
        self._enq_t[i] = now
        self._maybe_dispatch(rep, now)

    def _enqueue_admitted(self, i: int, now: float) -> None:
        """Re-home an already-admitted request after its replica died."""
        cell = self._cell_order[self._req_cell[i]]
        rep = self._owner(cell, int(self._req_key[i]), now)
        if rep is None:
            for other in self._cell_order:
                rep = self._owner(other, int(self._req_key[i]), now)
                if rep is not None:
                    self._result.spilled[i] = True
                    break
        if rep is None:         # the whole fleet is dead: fail loudly
            self._result.status[i] = STATUS_FAILED
            return
        # Depth caps do not apply: the request was admitted, and an
        # admitted request must never be silently dropped.
        rep.queues[self._req_lane[i]].append(i)
        rep.queued += 1
        rep.queued_windows += self._req_windows[i]
        self._maybe_dispatch(rep, now)

    # -- batching / dispatch -------------------------------------------------

    def _oldest_enqueue(self, rep: FleetReplica) -> float:
        oldest = float("inf")
        for q in rep.queues:
            if q:
                t = self._enq_t[q[0]]
                if t < oldest:
                    oldest = t
        return oldest

    def _maybe_dispatch(self, rep: FleetReplica, now: float) -> None:
        """Dispatch if the batch triggers fire, else arm the age deadline."""
        if not rep.alive or rep.busy_until > now or rep.queued == 0:
            return
        if rep.queued >= _MAX_BATCH_SIZE:
            self._dispatch(rep, now)
            return
        # Compare against the same float the deadline heap stores — a
        # subtraction-based age check can round the other way at the
        # exact firing instant and re-arm the due deadline forever.
        deadline = self._oldest_enqueue(rep) + _MAX_WAIT_S
        if now >= deadline:
            self._dispatch(rep, now)
        else:
            heapq.heappush(self._deadlines, (deadline, rep.replica_id))

    def _dispatch(self, rep: FleetReplica, now: float) -> None:
        batch: list[int] = []
        for q in rep.queues:        # lanes are priority-ordered
            while q and len(batch) < _MAX_BATCH_SIZE:
                batch.append(q.popleft())
        if not batch:
            return
        rep.queued -= len(batch)
        cache = rep.cache
        tile = self._tile_value
        hits = misses = nwin = 0
        for i in batch:
            base = int(self._req_key[i]) << 6
            w = int(self._req_windows[i])
            nwin += w
            for off in range(w):
                if cache.get(base | off) is None:
                    cache.put(base | off, tile)
                    misses += 1
                else:
                    hits += 1
        rep.queued_windows -= nwin
        service = (_SERVICE_BASE_S + _SERVICE_WINDOW_S * misses
                   + _HIT_WINDOW_S * hits)
        rep.busy_until = now + service
        rep.inflight = batch
        rep.epoch += 1
        rep.batches += 1
        cell = self.cells[rep.cell]
        cell.ewma_window_s = fold_service_ewma(cell.ewma_window_s,
                                               service / max(nwin, 1))
        heapq.heappush(self._completions,
                       (rep.busy_until, rep.replica_id, rep.epoch))

    def _complete(self, rep: FleetReplica, now: float) -> None:
        batch = rep.inflight or []
        rep.inflight = None
        cell = self.cells[rep.cell]
        res = self._result
        for i in batch:
            res.status[i] = STATUS_SERVED
            res.completed_s[i] = now
            res.replica[i] = rep.replica_id
            res.served_cell[i] = cell.index
        rep.served += len(batch)
        cell.c_served.inc(len(batch))
        if rep.draining and rep.queued == 0:
            rep.draining = False
            rep.alive = False
            rep.failed_reason = "scaled in"
            return
        self._maybe_dispatch(rep, now)

    # -- the control tick ----------------------------------------------------

    def _tick(self, now: float) -> None:
        for cell in self._cell_order:
            live = cell.live()
            cell.g_queue.set(sum(r.queued_windows for r in live))
            cell.g_replicas.set(len(live))
            if cell.ewma_window_s is not None:
                cell.g_service.set(cell.ewma_window_s * 1e3)
            hits, misses = cell.cache_totals()
            dh, dm = hits - cell.last_hits, misses - cell.last_misses
            cell.last_hits, cell.last_misses = hits, misses
            cell.hit_trace.append((now, dh, dm))
            if dh + dm:
                cell.g_hit_rate.set(dh / (dh + dm))
        self.streams.tick(self.tel.metrics, t=now)
        if self.health is not None:
            self.health.evaluate(t=now)
        if self.autoscaler is None:
            return
        for cell in self._cell_order:
            live = cell.live()
            decision = self.autoscaler.decide(cell.name, now, len(live))
            if decision.delta > 0:
                for _ in range(decision.delta):
                    self._add_replica(cell, now)
            elif decision.delta < 0:
                # Retire the youngest replicas first: coldest caches,
                # least key-space disruption (LIFO, mirroring shrink).
                victims = sorted(cell.live(),
                                 key=lambda r: (r.added_s, r.replica_id),
                                 reverse=True)[:-decision.delta]
                for rep in victims:
                    if len(cell.live()) <= 1:
                        break
                    self._remove_replica(cell, rep, now, "shrink")

    # -- the event loop ------------------------------------------------------

    def run(self, replay: Replay) -> FleetResult:
        """Serve the whole replay; returns the columnar outcomes."""
        cfg = self.config
        if tuple(replay.lanes) != DEFAULT_LANES:
            raise ValueError(f"replay lanes {replay.lanes} != fleet lanes "
                             f"{DEFAULT_LANES}")
        if tuple(replay.cells) != tuple(cfg.cells):
            raise ValueError(f"replay cells {replay.cells} != fleet cells "
                             f"{cfg.cells}")
        n = len(replay)
        if self.autoscaler is not None and n:
            # Demand is estimated in tile-windows; tell the autoscaler
            # how many windows an average request fans out into.
            self.autoscaler.windows_per_request = float(
                replay.windows.mean())
        self._req_key = replay.key
        self._req_lane = replay.lane
        self._req_cell = replay.cell
        self._req_windows = replay.windows
        self._enq_t = np.zeros(n)
        self._result = FleetResult(n)
        self._completions: list[tuple[float, int, int]] = []
        self._deadlines: list[tuple[float, int]] = []
        arrivals = replay.arrival_s
        kills = self._kills
        clock = self.clock
        i = k = 0
        next_tick = (np.floor(clock.now() / _WINDOW_S) + 1) * _WINDOW_S
        while True:
            now = clock.now()
            progressed = False
            # 1. Retire due completions (stale epochs are voided kills).
            while self._completions and self._completions[0][0] <= now:
                _, rid, epoch = heapq.heappop(self._completions)
                rep = self.replicas[rid]
                if rep.epoch == epoch and rep.inflight is not None:
                    self._complete(rep, now)
                progressed = True
            # 2. Inject due replica kills.
            while k < len(kills) and kills[k][0] <= now:
                _, rid = kills[k]
                k += 1
                rep = self.replicas.get(rid)
                if rep is not None and rep.alive:
                    cell = self.cells[rep.cell]
                    self._remove_replica(cell, rep, now, "kill")
                progressed = True
            # 3. Admit due arrivals.
            while i < n and arrivals[i] <= now:
                self._admit(i, now)
                i += 1
                progressed = True
            # 4. Fire due batch-age deadlines.
            while self._deadlines and self._deadlines[0][0] <= now:
                _, rid = heapq.heappop(self._deadlines)
                self._maybe_dispatch(self.replicas[rid], now)
                progressed = True
            # 5. Control tick (telemetry windows, health, autoscaler).
            if now >= next_tick:
                self._tick(now)
                next_tick += _WINDOW_S
                progressed = True
            if progressed:
                continue
            # Jump to the next event.
            pending = (i < n or self._completions
                       or any(r.queued for r in self.replicas.values()))
            if not pending:
                # Drained: one final tick closes the last stream windows.
                clock.advance_to(next_tick)
                self._tick(clock.now())
                break
            candidates = []
            if i < n:
                candidates.append(arrivals[i])
            if self._completions:
                candidates.append(self._completions[0][0])
            if self._deadlines:
                candidates.append(self._deadlines[0][0])
            # next_tick > now here (a due tick sets ``progressed``), so the
            # minimum always exists.
            candidates.append(next_tick)
            clock.advance_to(min(c for c in candidates if c > now))
        return self._result


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


@dataclass
class FleetReport:
    """End-of-replay accounting across the whole fleet."""

    offered: int
    admitted: int
    served: int
    shed: int
    failed: int
    spilled: int
    retries: int
    shed_by_reason: dict
    lanes: dict
    cells: dict
    makespan_s: float
    throughput_rps: float
    hit_rate: float
    scale_events: list
    autoscaler: dict
    replicas_final: dict

    @property
    def lost_admitted(self) -> int:
        """Admitted requests without a terminal response (must stay 0)."""
        return self.admitted - self.served - self.failed

    @property
    def spillover_vs_shed(self) -> float:
        """Overload absorbed remotely instead of refused (1.0 = all)."""
        pressured = self.spilled + self.shed
        return self.spilled / pressured if pressured else 0.0

    def as_dict(self) -> dict:
        doc = {k: v for k, v in self.__dict__.items()
               if k != "scale_events"}
        doc["scale_events"] = [e.as_dict() for e in self.scale_events]
        doc["lost_admitted"] = self.lost_admitted
        doc["spillover_vs_shed"] = self.spillover_vs_shed
        return doc


def _recovery(cell: _Cell, event: ScaleEventRecord) -> None:
    """Fill the event's hit-rate recovery fields from the cell's trace."""
    after = [(t, h, m) for t, h, m in cell.hit_trace if t > event.t]
    bar = 0.9 * event.pre_hit_rate
    for k in range(len(after)):
        tail = after[max(0, k - _RECOVERY_TICKS + 1): k + 1]
        hits = sum(h for _, h, _ in tail)
        total = hits + sum(m for _, _, m in tail)
        if total and hits / total >= bar:
            event.recovered_s = after[k][0]
            event.recovery_hit_rate = hits / total
            return


def summarize_fleet(result: FleetResult, server: FleetServer,
                    replay: Replay) -> FleetReport:
    """Fold a replay's columnar outcomes into one report."""
    cfg = server.config
    status = result.status
    served_mask = status == STATUS_SERVED
    shed_mask = status == STATUS_SHED
    failed_mask = status == STATUS_FAILED
    served = int(served_mask.sum())
    shed = int(shed_mask.sum())
    failed = int(failed_mask.sum())
    shed_by_reason = {}
    for code, name in enumerate(_SHED_REASONS):
        if code == 0:
            continue
        count = int((result.shed_reason[shed_mask] == code).sum())
        if count:
            shed_by_reason[name] = count
    lanes = {}
    for li, lane in enumerate(replay.lanes):
        lane_mask = replay.lane == li
        lane_served = served_mask & lane_mask
        lat = (result.completed_s[lane_served]
               - replay.arrival_s[lane_served])
        p50, p99 = (np.percentile(lat, [50, 99]) if lat.size
                    else (0.0, 0.0))
        lanes[lane] = {"served": int(lane_served.sum()),
                       "shed": int((shed_mask & lane_mask).sum()),
                       "p50_ms": float(p50) * 1e3,
                       "p99_ms": float(p99) * 1e3}
    cells = {}
    for name, cell in server.cells.items():
        hits, misses = cell.cache_totals()
        in_mask = served_mask & (result.served_cell == cell.index)
        home_mask = replay.cell == cell.index
        cells[name] = {
            "served": int(in_mask.sum()),
            "offered": int(home_mask.sum()),
            "shed": int((shed_mask & home_mask).sum()),
            "spilled_out": int((result.spilled & home_mask).sum()),
            "spilled_in": int((result.spilled & in_mask).sum()),
            "replicas": len(cell.live()),
            "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        }
    hits = sum(c.cache_totals()[0] for c in server.cells.values())
    lookups = hits + sum(c.cache_totals()[1] for c in server.cells.values())
    makespan = throughput = 0.0
    if served:
        start = float(replay.arrival_s[served_mask].min())
        end = float(np.nanmax(result.completed_s))
        makespan = end - start
        throughput = served / makespan if makespan > 0 else 0.0
    for event in server.scale_events:
        _recovery(server.cells[event.cell], event)
    decisions = (server.autoscaler.decisions
                 if server.autoscaler is not None else [])
    return FleetReport(
        offered=len(result), admitted=len(result) - shed,
        served=served, shed=shed, failed=failed,
        spilled=int(result.spilled.sum()),
        retries=server.total_retries,
        shed_by_reason=shed_by_reason, lanes=lanes, cells=cells,
        makespan_s=makespan, throughput_rps=throughput,
        hit_rate=hits / lookups if lookups else 0.0,
        scale_events=list(server.scale_events),
        autoscaler={
            "decisions": [d.as_dict() for d in decisions],
            "grows": sum(1 for d in decisions if d.kind == "grow"),
            "shrinks": sum(1 for d in decisions if d.kind == "shrink"),
        },
        replicas_final={name: len(cell.live())
                        for name, cell in server.cells.items()})
