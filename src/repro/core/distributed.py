"""Synchronous data-parallel training over the simulated MPI substrate.

One model replica per rank, identical initialization, per-rank local
batches, Horovod-style gradient averaging every step — the paper's training
configuration (Section V-A3), executed functionally in one process so the
distributed-equivalence invariant can be tested exactly:

    N-rank synchronous SGD on local batches == single-process SGD on the
    concatenated global batch (up to floating-point reassociation),

because an averaged mean-per-pixel-weighted gradient over equal-size shards
equals the global-batch gradient.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..comm.engine import EngineConfig, GradientExchangeEngine
from ..comm.horovod import ExchangeReport, HorovodConfig, allreduce_gradients
from ..comm.simmpi import World
from ..framework.module import Module
from ..telemetry import get_active
from .trainer import StepResult, TrainConfig, Trainer

__all__ = ["DistributedTrainer", "DistributedStepResult"]


@dataclass
class DistributedStepResult:
    """Outcome of one global step."""

    mean_loss: float
    per_rank_loss: list[float]
    exchange: ExchangeReport | None
    skipped: bool = False


class DistributedTrainer:
    """N synchronized replicas with Horovod gradient averaging.

    Parameters
    ----------
    model_factory:
        Zero-argument callable returning a *freshly initialized* model;
        called once per rank.  All replicas must initialize identically
        (pass a seeded rng inside the factory), mirroring Horovod's initial
        broadcast of rank 0's variables.
    """

    def __init__(
        self,
        model_factory,
        world_size: int,
        config: TrainConfig,
        class_frequencies: np.ndarray | None = None,
        horovod: HorovodConfig | None = None,
        fault_injector=None,
        engine: GradientExchangeEngine | EngineConfig | None = None,
    ):
        if world_size < 1:
            raise ValueError("world_size must be >= 1")
        self.world = World(world_size, fault_injector=fault_injector)
        self.config = config
        self.horovod = horovod or HorovodConfig(
            algorithm="ring", control_plane="hierarchical",
            fusion_threshold_bytes=4 * 1024 * 1024,
        )
        # Adaptive gradient exchange: an engine (or its config) supersedes
        # the fixed Horovod data plane.
        if isinstance(engine, EngineConfig):
            engine = GradientExchangeEngine(world_size, engine)
        self.engine = engine
        self.trainers = [
            Trainer(model_factory(), config, class_frequencies)
            for _ in range(world_size)
        ]
        self._verify_identical_init()
        self._step = 0

    def _verify_identical_init(self) -> None:
        ref = self.trainers[0].model.state_dict()
        for r, t in enumerate(self.trainers[1:], start=1):
            state = t.model.state_dict()
            for k, v in ref.items():
                if not np.array_equal(state[k], v):
                    raise ValueError(
                        f"rank {r} initialized differently at {k!r}; "
                        "model_factory must be deterministic"
                    )

    @property
    def world_size(self) -> int:
        return self.world.size

    @property
    def model(self) -> Module:
        """Rank 0's replica (all replicas stay bit-identical)."""
        return self.trainers[0].model

    # -- one global step -----------------------------------------------------

    def train_step(self, rank_batches: list[tuple[np.ndarray, np.ndarray]]
                   ) -> DistributedStepResult:
        """One synchronous step: local backward, all-reduce, local update."""
        tel = get_active()
        tracer = tel.tracer
        n = self.world.size
        if len(rank_batches) != n:
            raise ValueError(f"need {n} rank batches, got {len(rank_batches)}")
        losses = []
        all_grads = []
        any_skip = False
        with tracer.span("forward_backward", category="trainer",
                         step=self._step, ranks=n) as fb_span:
            for rank, (trainer, (images, labels)) in enumerate(
                    zip(self.trainers, rank_batches)):
                trainer.model.train(True)
                for p in trainer.optimizer.params:
                    p.zero_grad()
                with tracer.span("replica_fwd_bwd", category="trainer",
                                 rank=rank) as rank_span:
                    loss = trainer.compute_loss(images, labels)
                    if trainer.scaler is not None:
                        trainer.scaler.scale_loss(loss).backward()
                    else:
                        loss.backward()
                losses.append(float(loss.item()))
                # Zero-duration spans (disabled tracer, or a simulated
                # clock nobody advanced) carry no timing signal — feeding
                # them would poison windowed imbalance detection.
                if tel.streams is not None and rank_span.duration_s > 0:
                    tel.streams.observe("trainer.rank_step_s",
                                        rank_span.duration_s, rank=rank)
        if self.trainers[0].scaler is not None:
            # Overflow on ANY rank skips the global step (all ranks must act
            # identically or replicas diverge).
            oks = [t.scaler.step(t.optimizer.params) for t in self.trainers]
            if not all(oks):
                # Synchronize the scaler decision across replicas.
                for t in self.trainers:
                    t.scaler.scale = min(s.scale for s in
                                         (tr.scaler for tr in self.trainers))
                    for p in t.optimizer.params:
                        p.grad = None
                tracer.instant("global_loss_scale_overflow",
                               category="trainer", step=self._step)
                if tel.enabled:
                    tel.metrics.counter("dist.overflow_steps").inc()
                return DistributedStepResult(
                    mean_loss=float(np.mean(losses)), per_rank_loss=losses,
                    exchange=None, skipped=True,
                )
        for trainer in self.trainers:
            all_grads.append({p.name: np.asarray(p.grad, dtype=np.float32)
                              for p in trainer.optimizer.params
                              if p.grad is not None})
        with tracer.span("gradient_exchange", category="comm",
                         step=self._step, tensors=len(all_grads[0])) as ex_span:
            if self.engine is not None:
                self.world.stats.reset()
                averaged, report = self.engine.exchange(self.world, all_grads)
            else:
                averaged, report = allreduce_gradients(
                    self.world, all_grads, self.horovod, seed=self._step
                )
        with tracer.span("optimizer_update", category="trainer",
                         step=self._step) as opt_span:
            # On the engine path these are views of its pack buffers, read
            # by the update before the next exchange overwrites them.
            for trainer, grads in zip(self.trainers, averaged):
                for p in trainer.optimizer.params:
                    if p.name in grads:
                        p.grad = grads[p.name]
                trainer.optimizer.step()
        if tel.enabled:
            m = tel.metrics
            m.counter("dist.steps").inc()
            m.gauge("dist.mean_loss").set(float(np.mean(losses)))
            m.counter("comm.exchange_messages").inc(report.data_messages)
            m.counter("comm.exchange_bytes").inc(report.data_bytes)
        if tel.streams is not None:
            step_s = (fb_span.duration_s + ex_span.duration_s
                      + opt_span.duration_s)
            if step_s > 0:
                tel.streams.observe("trainer.step_time_s", step_s)
                tel.streams.observe("comm.exchange_time_s",
                                    ex_span.duration_s)
        self._step += 1
        return DistributedStepResult(
            mean_loss=float(np.mean(losses)), per_rank_loss=losses,
            exchange=report, skipped=False,
        )

    # -- communication state (error-feedback residuals) ------------------------

    def comm_state(self) -> dict[str, np.ndarray]:
        """Per-rank error-feedback residuals, keyed ``rank{r}.{tensor}``.

        Lossy compression is only convergent because dropped gradient mass
        is carried forward; losing the residuals at a restore point silently
        re-drops it.  This state rides checkpoints next to the model (see
        :meth:`CheckpointManager.save`'s ``extra_arrays``).
        """
        return {} if self.engine is None else self.engine.comm_state()

    def load_comm_state(self, state: dict[str, np.ndarray]) -> None:
        """Restore residuals saved by :meth:`comm_state`."""
        if self.engine is not None:
            self.engine.load_comm_state(state)

    # -- elastic degradation ---------------------------------------------------

    def shrink(self, failed_ranks, lr_scaling: str = "linear") -> dict:
        """Rebuild around the survivors of ``failed_ranks``.

        The elastic-recovery step of :mod:`repro.resilience`: drop the dead
        replicas, stand up a fresh (smaller) :class:`World` on the same
        fault injector, clear any half-exchanged gradients, re-broadcast
        rank 0's state so every survivor restarts bit-identical (what
        Horovod does with rank 0's variables after a restart), and rescale
        the learning rate to the surviving concurrency — ``"linear"``
        (Goyal et al.) or ``"sqrt"``, the two rules in
        :mod:`repro.core.optim.schedules`, or ``"none"``.

        Returns a summary dict (old/new size, LR factor).  Subsequent
        :meth:`train_epoch` calls re-shard over the new world size.
        """
        failed = {int(r) for r in failed_ranks}
        old_size = self.world.size
        survivors = [r for r in range(old_size) if r not in failed]
        if not survivors:
            raise ValueError("cannot shrink to zero survivors")
        if failed - set(range(old_size)):
            raise ValueError(f"failed ranks {sorted(failed)} out of range "
                             f"[0, {old_size})")
        tel = get_active()
        injector = self.world.fault_injector
        self.trainers = [self.trainers[r] for r in survivors]
        if self.engine is not None:
            # Drops only the failed ranks' residuals; survivors keep theirs.
            self.engine.shrink(survivors)
        self.world = World(len(survivors), fault_injector=injector)
        # A failure mid-exchange leaves fresh local gradients that were
        # never averaged; discard them so the retried step starts clean.
        for t in self.trainers:
            for p in t.model.parameters():
                p.grad = None
        # Restore the replica-consistency invariant from rank 0.
        ref = {k: v.copy() for k, v in self.trainers[0].model.state_dict().items()}
        for t in self.trainers[1:]:
            t.model.load_state_dict(ref)
        if lr_scaling == "linear":
            factor = len(survivors) / old_size
        elif lr_scaling == "sqrt":
            factor = float(np.sqrt(len(survivors) / old_size))
        elif lr_scaling == "none":
            factor = 1.0
        else:
            raise ValueError(f"unknown lr_scaling {lr_scaling!r}; "
                             "expected linear | sqrt | none")
        for t in self.trainers:
            t.optimizer.set_lr(t.optimizer.lr * factor)
        if tel.enabled:
            tel.metrics.counter("resilience.rank_failures").inc(len(failed))
            tel.metrics.gauge("dist.world_size").set(len(survivors))
        return {"old_size": old_size, "new_size": len(survivors),
                "failed_ranks": sorted(failed), "lr_factor": factor}

    # -- invariants ------------------------------------------------------------

    def max_replica_divergence(self) -> float:
        """Max abs *parameter* difference across replicas.

        Stays exactly zero under synchronous training: identical init +
        identical averaged gradients + deterministic optimizers.  Batch-norm
        running statistics are excluded — they are computed from local
        batches and legitimately differ per rank (as in real Horovod
        training); see :meth:`max_buffer_divergence`.
        """
        ref = {k: p.master_value() for k, p in
               self.trainers[0].model.named_parameters()}
        worst = 0.0
        for t in self.trainers[1:]:
            for k, p in t.model.named_parameters():
                diff = np.abs(p.master_value() - ref[k])
                if diff.size:
                    worst = max(worst, float(diff.max()))
        return worst

    def max_buffer_divergence(self) -> float:
        """Max abs difference of non-parameter state (BN running stats)."""
        params = {k for k, _ in self.trainers[0].model.named_parameters()}
        ref = self.trainers[0].model.state_dict()
        worst = 0.0
        for t in self.trainers[1:]:
            state = t.model.state_dict()
            for k, v in ref.items():
                if k not in params and v.size:
                    worst = max(worst, float(np.max(np.abs(state[k] - v))))
        return worst

    def train_epoch(self, dataset, batch_size: int, rng: np.random.Generator,
                    steps: int | None = None) -> list[DistributedStepResult]:
        """Run synchronized steps over per-rank shards of the training split."""
        n = self.world.size
        iterators = []
        for rank in range(n):
            shard = dataset.shard_indices(dataset.splits.train, rank, n)
            rank_rng = np.random.default_rng(rng.integers(0, 2**63))
            iterators.append(dataset.batches(shard, batch_size, rank_rng))
        results = []
        while True:
            try:
                batch_set = [next(it) for it in iterators]
            except StopIteration:
                break
            results.append(self.train_step(batch_set))
            if steps is not None and len(results) >= steps:
                break
        return results
