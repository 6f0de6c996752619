"""Model replicas and the least-loaded, fault-tolerant dispatch pool.

Scale-out serving mirrors the training topology: N identical model
replicas (same weights, like the post-broadcast Horovod ranks) with
batches routed to whichever replica frees up first.  Resilience reuses
the training stack's machinery directly:

* a replica that raises :class:`~repro.errors.FaultInjected` (from a
  seeded :class:`~repro.resilience.FaultPlan`, stepped once per dispatch)
  or any other :class:`~repro.errors.ReproError` is marked dead and the
  *same batch* is retried on a survivor under a
  :class:`~repro.resilience.RetryPolicy` — no admitted request is lost
  while any replica survives;
* the pool degrades elastically the way
  :meth:`repro.core.DistributedTrainer.shrink` does — dead replicas leave
  the routing set, the survivors absorb the load, and telemetry records
  the shrink (``serve.replica_failures``, ``serve.pool_size``).

Replicas run the *real* cross-request window stacking: every batch's
windows are gathered into one list, looked up in the shared
:class:`~repro.serve.cache.TileCache` under keys derived from one digest
per snapshot, and the misses forwarded in chunks of ``forward_batch``
(see :func:`repro.core.inference.forward_windows`).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.inference import blend_windows, forward_windows, tile_positions
from ..errors import RankFailure, ReproError
from ..framework.module import Module
from ..resilience import RetryPolicy, RetryState, with_retries
from ..telemetry import get_active
from ..telemetry.clock import WallClock
from .request import InferenceRequest

__all__ = ["Replica", "BatchResult", "ReplicaPool", "window_grid"]

#: A failed dispatch is retried on a survivor twice, with 1-10 ms backoff.
DISPATCH_RETRY = RetryPolicy(max_attempts=3, backoff_base_s=0.001,
                             max_backoff_s=0.01)


def window_grid(hw: tuple[int, int], window_hw: tuple[int, int],
                stride_hw: tuple[int, int] | None = None
                ) -> tuple[list[int], list[int]]:
    """Window origins down and across an (H, W) snapshot.

    ``stride_hw`` defaults to half a window (overlapping tiles).
    """
    (h, w), (wh, ww) = hw, window_hw
    sh, sw = stride_hw or (wh // 2, ww // 2)
    return tile_positions(h, wh, sh), tile_positions(w, ww, sw)


class Replica:
    """One model instance plus its scheduling state."""

    def __init__(self, replica_id: int, model: Module, clock=None):
        self.replica_id = int(replica_id)
        self.model = model
        # compute_s must be *measured* wall time even when a simulated
        # telemetry clock drives the virtual service clock it feeds, so
        # the default is an explicit WallClock, not the session clock.
        self.clock = clock if clock is not None else WallClock()
        self.alive = True
        self.busy_until = 0.0        # server-clock time this replica frees up
        self.batches = 0
        self.items = 0
        self.windows = 0
        self.failed_reason: str | None = None

    def run_batch(self, requests: list[InferenceRequest],
                  window_hw: tuple[int, int],
                  stride_hw: tuple[int, int] | None,
                  forward_batch: int, cache=None
                  ) -> tuple[list[np.ndarray], float, int]:
        """Segment every request in one stacked pass.

        Returns ``(class_maps, compute_s, n_windows)`` where ``compute_s``
        is the measured wall time of the real forward work — the number
        the server feeds its virtual service clock and the admission
        controller's EWMA.
        """
        wh, ww = window_hw
        t0 = self.clock.now()
        all_tiles: list[np.ndarray] = []
        keys: list | None = [] if cache is not None else None
        layout = []
        for req in requests:
            _, h, w = req.image.shape
            ys, xs = window_grid((h, w), window_hw, stride_hw)
            start = len(all_tiles)
            all_tiles.extend(req.image[:, y0: y0 + wh, x0: x0 + ww]
                             for y0 in ys for x0 in xs)
            if keys is not None:
                # One hash per snapshot, shared with sliding_window_logits.
                keys.extend(cache.window_keys(cache.key(req.image), ys, xs,
                                              (wh, ww)))
            layout.append((start, len(all_tiles) - start, ys, xs, (h, w)))
        outs = forward_windows(self.model, all_tiles,
                               batch_size=forward_batch, cache=cache,
                               keys=keys)
        maps = []
        for start, count, ys, xs, hw in layout:
            logits = blend_windows(outs[start: start + count], ys, xs,
                                   hw, window_hw)
            maps.append(np.argmax(logits, axis=0))
        compute_s = self.clock.now() - t0
        self.batches += 1
        self.items += len(requests)
        self.windows += len(all_tiles)
        return maps, compute_s, len(all_tiles)


@dataclass
class BatchResult:
    """Outcome of one (possibly retried) batch dispatch."""

    class_maps: list[np.ndarray]
    replica_id: int
    compute_s: float
    windows: int
    retries: int = 0
    backoff_s: float = 0.0
    failures: list[int] = field(default_factory=list)   # replicas that died


class ReplicaPool:
    """N replicas, least-loaded routing, retry-on-survivor dispatch."""

    def __init__(self, model_factory, num_replicas: int,
                 window_hw: tuple[int, int],
                 stride_hw: tuple[int, int] | None = None,
                 forward_batch: int = 32,
                 cache=None,
                 injector=None):
        if num_replicas < 1:
            raise ValueError("num_replicas must be >= 1")
        self.window_hw = tuple(window_hw)
        self.stride_hw = tuple(stride_hw) if stride_hw else None
        self.forward_batch = int(forward_batch)
        self.cache = cache
        self.injector = injector
        self.replicas = [Replica(i, model_factory())
                         for i in range(num_replicas)]
        self._dispatches = 0

    # -- membership --------------------------------------------------------

    @property
    def alive_replicas(self) -> list[Replica]:
        return [r for r in self.replicas if r.alive]

    @property
    def alive_ids(self) -> list[int]:
        return [r.replica_id for r in self.alive_replicas]

    @property
    def dead_ids(self) -> list[int]:
        return [r.replica_id for r in self.replicas if not r.alive]

    def next_free_s(self) -> float | None:
        """Earliest time any live replica frees up (None if none live)."""
        alive = self.alive_replicas
        if not alive:
            return None
        return min(r.busy_until for r in alive)

    def free_replica(self, now: float) -> Replica | None:
        """Least-loaded live replica that is idle at ``now``."""
        candidates = [r for r in self.alive_replicas if r.busy_until <= now]
        if not candidates:
            return None
        return min(candidates, key=lambda r: (r.busy_until, r.replica_id))

    # -- elastic degradation ----------------------------------------------

    def _mark_dead(self, replica: Replica, reason: str) -> None:
        """Drop a replica from routing — the serving analogue of
        :meth:`repro.core.DistributedTrainer.shrink`."""
        if not replica.alive:
            return
        replica.alive = False
        replica.failed_reason = reason
        tel = get_active()
        if tel.enabled:
            tel.metrics.counter("serve.replica_failures").inc()
            tel.metrics.gauge("serve.pool_size").set(len(self.alive_replicas))
            tel.tracer.instant("replica_failed", category="serve",
                               replica=replica.replica_id, reason=reason)

    # -- dispatch ----------------------------------------------------------

    def execute(self, requests: list[InferenceRequest],
                now: float) -> BatchResult:
        """Run one batch, retrying on survivors after a replica failure.

        Raises :class:`~repro.resilience.RetriesExhausted` only when the
        retry budget runs out (e.g. every replica is dead); any admitted
        batch completes as long as a survivor exists within the budget.
        """
        step = self._dispatches
        self._dispatches += 1
        if self.injector is not None:
            self.injector.begin_step(step)
        failures: list[int] = []
        state = RetryState()

        def attempt():
            replica = self.free_replica(now)
            if replica is None:
                # Survivors may exist but be busy; route to the least
                # loaded one anyway — a retried batch must not stall.
                alive = self.alive_replicas
                if not alive:
                    raise ReproError("no live replicas in the pool")
                replica = min(alive,
                              key=lambda r: (r.busy_until, r.replica_id))
            if (self.injector is not None
                    and replica.replica_id in self.injector.failed_ranks):
                self._mark_dead(replica, reason="injected rank failure")
                failures.append(replica.replica_id)
                raise RankFailure(replica.replica_id)
            try:
                maps, compute_s, windows = replica.run_batch(
                    requests, self.window_hw, self.stride_hw,
                    self.forward_batch, cache=self.cache)
            except ReproError as exc:
                self._mark_dead(replica, reason=repr(exc))
                failures.append(replica.replica_id)
                raise
            return replica, maps, compute_s, windows

        replica, maps, compute_s, windows = with_retries(
            attempt, DISPATCH_RETRY, retry_on=(ReproError,),
            label="serve.dispatch", state=state)
        return BatchResult(
            class_maps=maps, replica_id=replica.replica_id,
            compute_s=compute_s, windows=windows,
            retries=state.retries, backoff_s=state.backoff_total_s,
            failures=failures)
