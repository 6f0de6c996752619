"""The site launcher: packs ready jobs onto a simulated machine model.

Balsam's launcher pilots a real scheduler allocation and packs jobs into
it; here the "site" is an :class:`repro.hpc.specs.SystemSpec` machine
model (Summit or Piz Daint, usually scaled down to a few dozen nodes) and
time is virtual.  The launcher owns node accounting and the wall-time
cost models; the :class:`~repro.campaign.service.CampaignService` owns
the event loop that calls it.

Packing policy is **priority-order first-fit with backfill**: walk the
scheduler's order and launch every job that fits in the free nodes *right
now*.  A wide job that does not fit is skipped — not blocking — so
narrower, lower-priority work backfills around it (EASY backfill without
reservations; the aging term in the scheduler bounds how long the wide
job can be overtaken).

Wall-time estimates come from the perf cost models rather than made-up
constants: a training job's step time is
:func:`repro.perf.scaling.step_time_model` on the allocated GPU count
(weak-scaling step time, so wider allocations chew through a fixed sample
budget faster at the model's measured efficiency), and stage-in time is
the shared filesystem's effective read bandwidth from the
:class:`~repro.hpc.specs.FileSystemSpec`.
"""
from __future__ import annotations

from dataclasses import dataclass

from ..errors import CampaignError
from ..hpc.specs import SystemSpec
from .job import Job

__all__ = ["SiteConfig", "SiteLauncher"]

#: Per-GPU serving rate (requests/s) and per-node labeling rate (bytes/s)
#: for the non-training job kinds.  Deliberately simple: serving capacity
#: scales with GPUs, labeling (TECA-style heuristics, Section IV) is a
#: CPU-side scan that scales with nodes.
SERVE_RPS_PER_GPU = 200.0
LABEL_BYTES_PER_NODE_S = 2.0e9
#: The training-job cost model: the paper's Tiramisu at FP16 and its
#: per-GPU batch of 2, and the per-node preprocessing rate (bytes/s).
TRAIN_NETWORK = "tiramisu"
TRAIN_PRECISION = "fp16"
BATCH_PER_GPU = 2
PREPROCESS_BYTES_PER_S = 4.0e9


@dataclass(frozen=True)
class SiteConfig:
    """The slice of machine a campaign may use."""

    system: SystemSpec
    nodes: int | None = None         # cap (default: the whole machine)

    def __post_init__(self):
        if self.nodes is not None and not 1 <= self.nodes <= self.system.nodes:
            raise ValueError(
                f"nodes must be in [1, {self.system.nodes}]")

    @property
    def total_nodes(self) -> int:
        return self.nodes if self.nodes is not None else self.system.nodes


class SiteLauncher:
    """Node accounting + cost models for one simulated site."""

    def __init__(self, config: SiteConfig):
        self.config = config
        self.total_nodes = config.total_nodes
        self._allocated: dict[str, int] = {}     # job_id -> nodes held

    # -- node accounting ---------------------------------------------------

    @property
    def free_nodes(self) -> int:
        return self.total_nodes - sum(self._allocated.values())

    @property
    def busy_nodes(self) -> int:
        return sum(self._allocated.values())

    def allocate(self, job: Job, nodes: int) -> None:
        if job.job_id in self._allocated:
            raise CampaignError(f"{job.job_id} already holds an allocation")
        if not 1 <= nodes <= self.free_nodes:
            raise CampaignError(
                f"{job.job_id}: cannot allocate {nodes} nodes "
                f"({self.free_nodes} free)")
        self._allocated[job.job_id] = nodes

    def release(self, job: Job) -> int:
        nodes = self._allocated.pop(job.job_id, 0)
        if nodes == 0:
            raise CampaignError(f"{job.job_id} holds no allocation")
        return nodes

    # -- packing -----------------------------------------------------------

    def pack(self, ordered_jobs: list[Job]) -> list[tuple[Job, int]]:
        """First-fit-with-backfill over the scheduler's order.

        Returns the ``(job, nodes)`` pairs that fit right now, allocating
        as it goes.  A restarting job asks for its (already shrunk)
        ``nodes_allocated``; a fresh job asks for its requested width,
        narrowed to ``min_nodes`` at worst if the *whole site* is smaller
        than the request (a request can never exceed the machine).
        """
        launched: list[tuple[Job, int]] = []
        for job in ordered_jobs:
            want = self.width_for(job)
            if want <= self.free_nodes:
                self.allocate(job, want)
                launched.append((job, want))
        return launched

    def width_for(self, job: Job) -> int:
        """Nodes this job would occupy if launched now."""
        if job.state == "RESTARTING" and job.nodes_allocated > 0:
            return job.nodes_allocated
        return max(job.min_nodes, min(job.nodes, self.total_nodes))

    # -- cost models -------------------------------------------------------

    def stage_in_s(self, job: Job) -> float:
        """Virtual seconds to stage ``data_bytes`` from the shared FS."""
        if job.data_bytes <= 0:
            return 0.0
        fs = self.config.system.filesystem
        return job.data_bytes / fs.effective_read_bandwidth

    def preprocess_s(self, job: Job) -> float:
        """Virtual seconds of single-node preprocessing before launch."""
        if job.data_bytes <= 0:
            return 0.0
        return job.data_bytes / PREPROCESS_BYTES_PER_S

    def run_s(self, job: Job, nodes: int) -> float:
        """Wall-time estimate to finish ``job`` on ``nodes`` nodes.

        The remaining work is ``steps_total - resume_step`` progress units.
        """
        remaining = max(0, job.steps_total - job.resume_step)
        if remaining == 0:
            return 0.0
        gpus = nodes * self.config.system.node.gpus
        if job.kind == "train":
            from ..perf.scaling import step_time_model
            # steps_total is a *sample* budget; a wider allocation eats
            # more samples per step at the model's measured efficiency.
            per_step = step_time_model(
                TRAIN_NETWORK, gpus, TRAIN_PRECISION,
                system_name=("summit" if self.config.system.name == "Summit"
                             else "piz_daint"))
            samples_per_step = BATCH_PER_GPU * gpus
            steps = -(-remaining // samples_per_step)   # ceil division
            return steps * per_step
        if job.kind == "serve":
            return remaining / (SERVE_RPS_PER_GPU * gpus)
        if job.kind == "label":
            # One progress unit = one shard of the staged data (or 1 GB
            # when the job staged nothing).
            chunk_bytes = (job.data_bytes / job.steps_total
                           if job.data_bytes > 0 else 1.0e9)
            return remaining * chunk_bytes / (LABEL_BYTES_PER_NODE_S * nodes)
        raise CampaignError(f"no cost model for job kind {job.kind!r}")
