"""Autoscaling, sharded serve fleet: replicas, cells, and the scale loop.

`repro.serve` ends at one replica pool behind one queue.  This package is
the fleet layer the paper-scale serving story needs ("millions of
users"): many replicas across **cells**, each owning a stable shard of
the tile-key space, with capacity that follows the offered load:

* a :class:`HashRing` (:mod:`.hashring`) — consistent hashing with
  virtual nodes, so a scale event remaps only ~1/N of the key space and
  warm tiles survive on the replicas that already hold them;
* a telemetry-driven :class:`Autoscaler` (:mod:`.autoscaler`) — consumes
  the :class:`~repro.telemetry.streaming.StreamingAggregator` windows
  (EWMA arrival rate, service time, queue depth) and grows/shrinks each
  cell's replica set, shrink mirroring
  :meth:`repro.core.DistributedTrainer.shrink`, growth ramping admission
  over a warm-up window;
* multi-cell routing (:mod:`.fleet`) — per-cell SLOs with cross-cell
  spillover when a cell's estimated wait blows its budget, and shedding
  only when every cell is out of budget;
* a columnar million-request :class:`Replay` format plus
  :class:`FleetServer`, the discrete-event loop that serves it
  deterministically on a :class:`~repro.telemetry.SimulatedClock`.

Entry points: build a :class:`FleetServer`, feed it a
:func:`repro.serve.loadgen.replay_workload` stream, and fold the result
with :func:`summarize_fleet`.  ``repro fleet`` wraps exactly that.
"""
from .autoscaler import Autoscaler, AutoscalerConfig, ScaleDecision
from .fleet import (
    FleetConfig,
    FleetReplica,
    FleetReport,
    FleetResult,
    FleetServer,
    Replay,
    ScaleEventRecord,
    summarize_fleet,
)
from .hashring import HashRing, remap_fraction

__all__ = [
    "HashRing",
    "remap_fraction",
    "Autoscaler",
    "AutoscalerConfig",
    "ScaleDecision",
    "FleetConfig",
    "FleetReplica",
    "FleetServer",
    "FleetReport",
    "FleetResult",
    "Replay",
    "ScaleEventRecord",
    "summarize_fleet",
]
