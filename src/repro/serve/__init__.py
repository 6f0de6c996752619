"""Inference serving for trained climate-segmentation models.

The paper ends where most reproductions stop: a trained network.  This
package is the deployment half — serving sliding-window segmentation to
concurrent clients with the throughput tricks that make it affordable:

* a fault-tolerant **replica pool** (:mod:`.replica`) — least-loaded
  routing with retry-on-survivor, reusing :mod:`repro.resilience`;
* a content-keyed, byte-budgeted **tile cache** (:mod:`.cache`) over
  per-window logits;
* one laned **request queue** (:mod:`.queue`) — priority lanes, depth
  backpressure, estimated-wait load shedding, and the dynamic
  **micro-batching** triggers that coalesce concurrent requests into one
  stacked forward per dispatch;
* a discrete-event **server** (:mod:`.server`) on the telemetry
  :class:`~repro.telemetry.SimulatedClock`, plus a seeded synthetic
  **load generator** (:mod:`.loadgen`);
* an autoscaling, sharded **fleet** layer (:mod:`.fleet`) — cells of
  consistent-hash-sharded replicas, telemetry-driven scaling, cross-cell
  SLO spillover, and a columnar million-request replay format.

Entry points: build an :class:`InferenceServer`, feed it requests from
:func:`synth_workload` (or your own), and fold the responses with
:func:`summarize`; or build a :class:`FleetServer` over a
:func:`replay_workload` stream and fold with :func:`summarize_fleet`.
``repro serve`` and ``repro fleet`` wrap exactly that.
"""
from .cache import CacheStats, TileCache
from .fleet import (
    Autoscaler,
    AutoscalerConfig,
    FleetConfig,
    FleetReplica,
    FleetReport,
    FleetResult,
    FleetServer,
    HashRing,
    Replay,
    ScaleDecision,
    ScaleEventRecord,
    remap_fraction,
    summarize_fleet,
)
from .loadgen import ReplayConfig, WorkloadConfig, replay_workload, \
    synth_workload
from .queue import RequestQueue
from .replica import BatchResult, Replica, ReplicaPool
from .request import DEFAULT_LANES, InferenceRequest, InferenceResponse
from .server import InferenceServer, ServeConfig, ServeReport, summarize

__all__ = [
    "DEFAULT_LANES",
    "InferenceRequest",
    "InferenceResponse",
    "CacheStats",
    "TileCache",
    "RequestQueue",
    "Replica",
    "BatchResult",
    "ReplicaPool",
    "ServeConfig",
    "InferenceServer",
    "ServeReport",
    "summarize",
    "ReplayConfig",
    "replay_workload",
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
