"""Synchronous data-parallel training over the simulated MPI substrate.

N ranks share one parameter set: identical weights, per-rank local
batches, and fused gradient averaging every step through
:class:`~repro.comm.engine.GradientExchangeEngine` — the paper's training
configuration (Section V-A3), executed functionally in one process so the
distributed-equivalence invariant can be tested exactly:

    N-rank synchronous SGD on local batches == single-process SGD on the
    concatenated global batch (up to floating-point reassociation),

because an averaged mean-per-pixel-weighted gradient over equal-size shards
equals the global-batch gradient.

Every rank receives bit-identical averaged gradients (checked on every
exchange), so one model, optimizer and loss scaler serve all ranks and the
update runs once per step; the ranks' batches run as one stacked forward
and backward (:meth:`DistributedTrainer.stack_width`) that writes FP32
grads straight into the engine's buckets.  The step is the single-process
:class:`~repro.core.trainer.Trainer` step with the exchange between
``unscale`` and ``apply``.

The engine is the only exchange path.  The paper's per-tensor readiness
negotiation existed because TensorFlow ran ops in a different order on each
rank; the tape runs backward in the same order everywhere, so the engine
buckets in that static order and nothing is negotiated.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..comm.engine import EngineConfig, EngineReport, GradientExchangeEngine
from ..comm.simmpi import World
from ..framework.layers import BatchNorm2D
from ..framework.module import Module
from ..telemetry import get_active
from .optim import schedules
from .trainer import TrainConfig, Trainer

__all__ = ["DistributedTrainer", "DistributedStepResult"]


def _rows_behind(grads: dict[str, np.ndarray], rank: int) -> list[np.ndarray]:
    """The arrays rank ``rank``'s averaged tensors view: its row of each
    ``(ranks, elems)`` bucket, a strategy's own 1-D result, or itself."""
    rows = {}
    for g in grads.values():
        b = g if g.base is None else g.base
        rows[id(b)] = b[rank] if b is not g and b.ndim == 2 else b
    return list(rows.values())


@dataclass
class DistributedStepResult:
    """Outcome of one global step."""

    mean_loss: float
    per_rank_loss: list[float]
    exchange: EngineReport | None
    skipped: bool = False


class DistributedTrainer:
    """N synchronized ranks on one parameter set, averaging through the engine.

    Parameters
    ----------
    model_factory:
        Zero-argument callable returning a freshly initialized model;
        called once.  Its weights are every rank's weights, as after
        Horovod's initial broadcast of rank 0's variables.
    engine:
        The :class:`GradientExchangeEngine` (or its :class:`EngineConfig`)
        every step exchanges through; ``EngineConfig()`` when omitted.
    """

    def __init__(
        self,
        model_factory,
        world_size: int,
        config: TrainConfig,
        class_frequencies: np.ndarray | None = None,
        fault_injector=None,
        engine: GradientExchangeEngine | EngineConfig | None = None,
    ):
        if world_size < 1:
            raise ValueError("world_size must be >= 1")
        self.world = World(world_size, fault_injector=fault_injector)
        if not isinstance(engine, GradientExchangeEngine):
            engine = GradientExchangeEngine(world_size, engine)
        self.engine = engine
        self.trainer = Trainer(model_factory(), config, class_frequencies)
        self.model.restack([0] * world_size)
        self._stacks: dict[tuple, bool] = {}
        self._seat_gradients()
        self._divergence = 0.0
        self._step = 0

    @property
    def trainers(self) -> tuple[Trainer]:
        """``(self.trainer,)``, for the e2e benchmark's ``trainers[0]``."""
        return (self.trainer,)

    @property
    def world_size(self) -> int:
        return self.world.size

    @property
    def model(self) -> Module:
        """The shared model (BN statistics: one row per rank)."""
        return self.trainer.model

    # -- rank-local state ------------------------------------------------------

    def broadcast_buffers(self) -> None:
        """Give every rank rank 0's BN statistics, after a checkpoint load."""
        self.model.restack(range(self.world.size))

    def _seat_gradients(self) -> None:
        """Point each parameter's ``slot`` at its bucket rows; FP32 and
        uncompressed only (FP16 unscale and compressors copy anyway)."""
        params = self.trainer.optimizer.params
        slots = {}
        if self.trainer.scaler is None and self.engine.compression is None:
            slots = self.engine.bucket_slots({p.name: p.data for p in params})
        for p in params:
            p.slot = slots.get(p.name)

    def stack_width(self, rank_batches) -> int:
        """All ranks per forward/backward if their batches share a shape and
        one sample's activations (``Module.analyze``) weigh no more than the
        parameters, whose per-rank gradient sets the slots remove; else 1."""
        images = rank_batches[0][0]
        shape = images.shape[1:]
        if shape not in self._stacks:
            sample = self.model.analyze(shape, precision=self.trainer.config.precision)
            self._stacks[shape] = sample.total_activation_bytes <= sum(
                p.data.nbytes for p in self.model.parameters())
        equal = all(b[0].shape == images.shape for b in rank_batches)
        return len(rank_batches) if equal and self._stacks[shape] else 1

    # -- one global step -----------------------------------------------------

    def train_step(self, rank_batches: list[tuple[np.ndarray, np.ndarray]]
                   ) -> DistributedStepResult:
        """One synchronous step: :meth:`Trainer.local_gradients` per stack
        of rank batches (:meth:`stack_width`), one :meth:`Trainer.unscale`
        over all ranks, all-reduce, one :meth:`Trainer.apply`."""
        tel = get_active()
        tracer = tel.tracer
        n = self.world.size
        if len(rank_batches) != n:
            raise ValueError(f"need {n} rank batches, got {len(rank_batches)}")
        trainer = self.trainer
        width = self.stack_width(rank_batches)
        losses = []
        rank_grads = []
        with tracer.span("forward_backward", category="trainer",
                         step=self._step, ranks=n, stack=width) as fb_span:
            for lo in range(0, n, width):
                images, labels = map(np.concatenate,
                                     zip(*rank_batches[lo:lo + width]))
                stack_losses, grads = trainer.local_gradients(
                    images, labels, range(lo, lo + width))
                losses += stack_losses
                rank_grads += grads
        mean_loss = float(np.mean(losses))
        rank_grads = trainer.unscale(rank_grads)
        if rank_grads is None:
            trainer.record_step(tel, mean_loss, True, fb_span.duration_s)
            return DistributedStepResult(
                mean_loss=mean_loss, per_rank_loss=losses,
                exchange=None, skipped=True,
            )
        with tracer.span("gradient_exchange", category="comm",
                         step=self._step, tensors=len(rank_grads[0])) as ex_span:
            self.world.stats.reset()
            averaged, report = self.engine.exchange(self.world, rank_grads)
        self._check_lockstep(averaged)
        with tracer.span("optimizer_update", category="trainer",
                         step=self._step) as opt_span:
            # Views of the engine's bucket buffers, read by the update before
            # the next step's gradients overwrite them.
            trainer.apply(averaged[0])
        step_s = fb_span.duration_s + ex_span.duration_s + opt_span.duration_s
        trainer.record_step(tel, mean_loss, False, step_s)
        if tel.streams is not None and step_s > 0:
            tel.streams.observe("trainer.step_time_s", step_s)
            tel.streams.observe("comm.exchange_time_s", ex_span.duration_s)
        self._step += 1
        return DistributedStepResult(
            mean_loss=mean_loss, per_rank_loss=losses,
            exchange=report, skipped=False,
        )

    def _check_lockstep(self, averaged: list[dict[str, np.ndarray]]) -> None:
        """Fold how far any rank's averaged gradients stray from rank 0's
        into the running maximum :meth:`max_replica_divergence` reports;
        rank rows are compared, not the bucket arrays all ranks share."""
        ref = _rows_behind(averaged[0], 0)
        for rank, grads in enumerate(averaged[1:], 1):
            for got, want in zip(_rows_behind(grads, rank), ref, strict=True):
                if not np.array_equal(got, want):
                    self._divergence = max(
                        self._divergence, float(np.max(np.abs(got - want))))

    # -- communication state (error-feedback residuals) ------------------------

    def comm_state(self) -> dict[str, np.ndarray]:
        """Per-rank error-feedback residuals, keyed ``rank{r}.{tensor}``.

        Lossy compression is only convergent because dropped gradient mass
        is carried forward; losing the residuals at a restore point silently
        re-drops it.  This state rides checkpoints next to the model (see
        :meth:`CheckpointManager.save`'s ``extra_arrays``).
        """
        return self.engine.comm_state()

    def load_comm_state(self, state: dict[str, np.ndarray]) -> None:
        """Restore residuals saved by :meth:`comm_state`."""
        self.engine.load_comm_state(state)

    # -- elastic degradation ---------------------------------------------------

    def shrink(self, failed_ranks, lr_scaling: str = "linear") -> dict:
        """Rebuild around the survivors of ``failed_ranks``.

        The elastic-recovery step of :mod:`repro.resilience`: drop the dead
        ranks' local state, stand up a fresh (smaller) :class:`World` on the
        same fault injector, clear any half-exchanged gradients, give every
        survivor the new rank 0's BN statistics, and rescale the learning
        rate to the surviving concurrency — ``"linear"`` (Goyal et al.) or
        ``"sqrt"``, the two rules in :mod:`repro.core.optim.schedules`, or
        ``"none"``.

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
        # Survivors keep their generators; a dead rank 0 hands its BN
        # statistics role to the first survivor.
        self.model.restack(survivors)
        # Drops only the failed ranks' residuals; survivors keep theirs.
        self.engine.shrink(survivors)
        self.world = World(len(survivors), fault_injector=injector)
        self._seat_gradients()
        # A failure mid-exchange leaves fresh local gradients that were
        # never averaged; discard them so the retried step starts clean.
        for p in self.model.parameters():
            p.grad = None
        if lr_scaling == "linear":
            factor = schedules.linear_scaled_lr(1.0, len(survivors), old_size)
        elif lr_scaling == "sqrt":
            factor = schedules.sqrt_scaled_lr(1.0, len(survivors), old_size)
        elif lr_scaling == "none":
            factor = 1.0
        else:
            raise ValueError(f"unknown lr_scaling {lr_scaling!r}; "
                             "expected linear | sqrt | none")
        optimizer = self.trainer.optimizer
        optimizer.set_lr(optimizer.lr * factor)
        if tel.enabled:
            tel.metrics.counter("resilience.rank_failures").inc(len(failed))
            tel.metrics.gauge("dist.world_size").set(len(survivors))
        return {"old_size": old_size, "new_size": len(survivors),
                "failed_ranks": sorted(failed), "lr_factor": factor}

    # -- invariants ------------------------------------------------------------

    def max_replica_divergence(self) -> float:
        """Max abs difference of any rank's averaged gradients from rank
        0's over every exchange so far; exactly zero under synchronous
        training.  BN statistics legitimately differ per rank (see
        :meth:`max_buffer_divergence`)."""
        return self._divergence

    def max_buffer_divergence(self) -> float:
        """Max abs difference of any rank's BN running stats from rank 0's."""
        rows = [r for m in self.model.modules() if isinstance(m, BatchNorm2D)
                for r in (m.rank_mean, m.rank_var) if len(r) > 1]
        return max((float(np.max(np.abs(r[1:] - r[0]))) for r in rows),
                   default=0.0)

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
