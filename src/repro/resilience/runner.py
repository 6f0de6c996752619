"""Fault-tolerant distributed training: inject, survive, recover, verify.

This is the tentpole orchestration: a :class:`repro.core.DistributedTrainer`
driven under a :class:`FaultPlan`, surviving everything the plan throws —

* **read faults** retry with backoff (:mod:`repro.resilience.retry`);
* **dropped / duplicated messages** are handled at the wire
  (:meth:`repro.comm.simmpi.World.recv_reliable` and transport dedup) or,
  when a drop lands mid-allreduce, by draining the wire and retrying the
  whole step (gradients are recomputed, so the retry is exact);
* **rank failures** trigger *elastic degradation*: the survivors rebuild a
  smaller world (:meth:`repro.core.DistributedTrainer.shrink`), data is
  re-sharded over the new size, and the LR rescales to the surviving
  concurrency;
* **periodic checkpoints** (:class:`repro.core.CheckpointManager`) give
  autoresume: a rerun on the same directory restarts from the latest
  step instead of step 0.

Every fault and recovery lands in telemetry (counters plus
``category="resilience"`` spans), so a Chrome trace of a faulty run shows
each injected failure and the recovery that answered it.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.checkpoint import CheckpointManager
from ..core.distributed import DistributedTrainer
from ..core.trainer import TrainConfig
from ..errors import FaultInjected, RankFailure, ReadFault, StagingError
from ..telemetry import get_active
from .faults import FaultInjector, FaultPlan
from .retry import RetryPolicy, RetryState, with_retries

__all__ = ["ResilienceReport", "run_resilient_training", "mean_eval_loss"]

#: Checkpoint files a run keeps, and how often one step may be retried
#: after losing messages before the failure propagates.
KEEP_LAST = 3
MAX_STEP_RETRIES = 3


def mean_eval_loss(trainer, batches) -> float:
    """Mean loss of the (rank 0) model over fixed evaluation batches.

    The fault-tolerance acceptance metric: per-step training losses are
    noisy (each step sees different shards, and a shrunk world sees fewer),
    so faulty and fault-free runs are compared by their *final models* on
    one fixed batch set.
    """
    t = trainer.trainer if isinstance(trainer, DistributedTrainer) else trainer
    vals = [float(t.compute_loss(images, labels).item())
            for images, labels in batches]
    if not vals:
        raise ValueError("need at least one evaluation batch")
    return float(np.mean(vals))


@dataclass
class ResilienceReport:
    """What a resilient run survived, and how it ended."""

    steps_completed: int = 0
    start_world_size: int = 0
    final_world_size: int = 0
    rank_failures: list[int] = field(default_factory=list)  # original ids
    recoveries: int = 0
    step_retries: int = 0
    read_retries: int = 0
    injected: dict[str, int] = field(default_factory=dict)
    checkpoints_saved: int = 0
    resumed_from: str | None = None
    resumed_at_step: int = 0
    losses: list[float] = field(default_factory=list)
    trainer: DistributedTrainer | None = field(default=None, repr=False)



def run_resilient_training(
    model_factory,
    config: TrainConfig,
    world_size: int,
    batch_provider,
    steps: int,
    plan: FaultPlan | None = None,
    class_frequencies: np.ndarray | None = None,
    checkpoint_dir=None,
    checkpoint_every: int = 0,
    lr_scaling: str = "linear",
    on_step=None,
    engine=None,
) -> ResilienceReport:
    """Train ``steps`` global steps under ``plan``; returns the report.

    ``batch_provider(step, rank, world_size)`` must return one
    ``(images, labels)`` batch; it is called with the *current* world size,
    so after an elastic shrink the surviving ranks automatically cover a
    re-sharded data assignment.  Faults listed in ``plan`` are injected at
    their scheduled steps; a run with ``plan=None`` is the fault-free
    baseline the CLI compares against.  Batch reads are retried under the
    default :class:`RetryPolicy`.  A step that keeps losing messages is
    retried at most ``MAX_STEP_RETRIES`` times (each one counted in
    ``report.step_retries``); the next failure propagates.  A run with a
    ``checkpoint_dir`` resumes from its latest checkpoint.

    ``engine`` (a :class:`repro.comm.GradientExchangeEngine` or its config;
    ``EngineConfig()`` when omitted) is what every step exchanges
    gradients through.  Its compressors' error-feedback residuals ride
    checkpoints as extra arrays and are restored on resume — losing them
    would silently re-drop gradient mass the compressor had promised to
    carry forward.

    ``on_step(step, result, trainer, original_ids)`` is called after each
    completed step (before telemetry sampling) — the hook the health drill
    uses to advance a simulated clock and emit virtual per-rank spans.
    When the active telemetry session has streaming/health layers attached
    (:meth:`repro.telemetry.Telemetry.attach_health`), every completed step
    samples the registry into the stream, closes due windows, and runs the
    health rules — so alerts fire *during* the run, not post hoc.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    tel = get_active()
    tracer = tel.tracer
    injector = FaultInjector(plan) if plan is not None and len(plan) else None
    trainer = DistributedTrainer(model_factory, world_size, config,
                                 class_frequencies, fault_injector=injector,
                                 engine=engine)
    report = ResilienceReport(start_world_size=world_size, trainer=trainer)
    manager = None
    if checkpoint_dir is not None:
        manager = CheckpointManager(checkpoint_dir, keep_last=KEEP_LAST)
    start_step = 0
    if manager is not None:
        latest = manager.latest()
        if latest is not None:
            with tracer.span("checkpoint_resume", category="resilience"):
                # Restore the shared model AND optimizer state, then hand
                # every rank the loaded batch-norm statistics: the moral
                # equivalent of Horovod's rank-0 broadcast after restart.
                meta = manager.load(trainer.trainer, latest)
                trainer.broadcast_buffers()
                # Error-feedback residuals are comm-layer state, not model
                # state; restore them alongside or compression re-drops
                # whatever mass was pending at the checkpoint.
                trainer.load_comm_state(manager.load_extra_arrays(latest))
            start_step = int(meta.get("extra", {}).get("step", 0))
            report.resumed_from = str(latest)
            report.resumed_at_step = start_step
            if tel.enabled:
                tel.metrics.counter("resilience.resumes").inc()

    policy = RetryPolicy()
    read_state = RetryState()
    # Current-rank -> original-rank mapping; fault plans name ranks in the
    # original numbering, and the report does too.
    original_ids = list(range(world_size))

    def fetch(step: int, rank: int):
        def attempt():
            if injector is not None:
                injector.check_read(f"step{step}/rank{rank}")
            return batch_provider(step, rank, trainer.world_size)

        return with_retries(attempt, policy,
                            retry_on=(ReadFault, StagingError, OSError),
                            label=f"batch:step{step}/rank{rank}",
                            state=read_state)

    for step in range(start_step, steps):
        if injector is not None:
            for orig in injector.begin_step(step):
                if orig in original_ids:
                    trainer.world.fail_rank(original_ids.index(orig))
        wire_retries = 0
        while True:
            try:
                with tracer.span("resilient_step", category="resilience",
                                 step=step, world=trainer.world_size):
                    batches = [fetch(step, rank)
                               for rank in range(trainer.world_size)]
                    result = trainer.train_step(batches)
                break
            except RankFailure:
                dead_current = sorted(trainer.world.failed_ranks)
                dead_original = [original_ids[i] for i in dead_current]
                with tracer.span("elastic_recovery", category="resilience",
                                 step=step, failed=dead_original):
                    info = trainer.shrink(dead_current, lr_scaling=lr_scaling)
                original_ids = [oid for i, oid in enumerate(original_ids)
                                if i not in dead_current]
                report.rank_failures.extend(dead_original)
                report.recoveries += 1
                if tel.enabled:
                    tel.metrics.counter("resilience.recoveries").inc()
                    tel.tracer.instant(
                        "world_shrunk", category="resilience", step=step,
                        old=info["old_size"], new=info["new_size"],
                        lr_factor=info["lr_factor"])
                continue
            except FaultInjected:
                # A drop that escaped the reliable-recv paths (e.g. inside
                # the allreduce): flush the wire, recompute the step.
                if wire_retries == MAX_STEP_RETRIES:
                    raise
                wire_retries += 1
                report.step_retries += 1
                trainer.world.drain()
                for p in trainer.model.parameters():
                    p.grad = None
                if tel.enabled:
                    tel.metrics.counter("resilience.step_retries").inc()
                continue
        report.losses.append(result.mean_loss)
        report.steps_completed += 1
        if on_step is not None:
            on_step(step, result, trainer, original_ids)
        if tel.streams is not None:
            tel.streams.sample(tel.metrics)
            tel.streams.advance()
        if tel.health is not None:
            tel.health.evaluate()
        if (manager is not None and checkpoint_every > 0
                and (step + 1) % checkpoint_every == 0):
            with tracer.span("checkpoint_save", category="resilience",
                             step=step):
                manager.save(trainer.trainer, step=step + 1,
                             extra_arrays=trainer.comm_state())
            report.checkpoints_saved += 1

    report.final_world_size = trainer.world_size
    report.read_retries = read_state.retries
    if injector is not None:
        report.injected = {k: v for k, v in injector.counts.items() if v}
    if tel.enabled:
        tel.metrics.gauge("resilience.final_world_size").set(
            trainer.world_size)
    return report
