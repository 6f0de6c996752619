"""Inference serving for trained climate-segmentation models.

The paper ends where most reproductions stop: a trained network.  This
package is the deployment half — serving sliding-window segmentation to
concurrent clients with the throughput tricks that make it affordable:

* dynamic **micro-batching** (:mod:`.batcher`) — coalesce concurrent
  requests into one stacked forward per dispatch;
* a fault-tolerant **replica pool** (:mod:`.replica`) — least-loaded
  routing with retry-on-survivor, reusing :mod:`repro.resilience`;
* a content-keyed, byte-budgeted **tile cache** (:mod:`.cache`) over
  per-window logits;
* **SLO-aware admission control** (:mod:`.queue`) — priority lanes,
  depth backpressure, and estimated-wait load shedding;
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
from .batcher import MicroBatcher
from .cache import CacheStats, TileCache
from .fleet import (
    Autoscaler,
    AutoscalerConfig,
    FleetConfig,
    FleetReplica,
    FleetReport,
    FleetRequest,
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
from .queue import AdmissionController, RequestQueue
from .replica import BatchResult, Replica, ReplicaPool
from .request import DEFAULT_LANES, InferenceRequest, InferenceResponse
from .server import (
    FixedServiceTime,
    InferenceServer,
    ServeConfig,
    ServeReport,
    measured_service,
    summarize,
)

__all__ = [
    "DEFAULT_LANES",
    "InferenceRequest",
    "InferenceResponse",
    "CacheStats",
    "TileCache",
    "AdmissionController",
    "RequestQueue",
    "MicroBatcher",
    "Replica",
    "BatchResult",
    "ReplicaPool",
    "ServeConfig",
    "FixedServiceTime",
    "measured_service",
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
    "FleetRequest",
    "FleetReplica",
    "FleetServer",
    "FleetReport",
    "FleetResult",
    "Replay",
    "ScaleEventRecord",
    "summarize_fleet",
]
