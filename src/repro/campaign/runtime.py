"""Job runtimes: the checkpoint/restart seam between campaign and trainer.

The orchestration loop never touches model state directly — it asks a
*runtime* to persist progress and to answer "where would this job resume
from?".  Two implementations:

* :class:`CheckpointedRuntime` — the real thing.  Each training job owns
  a :class:`repro.core.CheckpointManager` directory under the campaign
  workdir and a tiny seeded :class:`~repro.core.trainer.Trainer` whose
  state rides every checkpoint, so restart-from-checkpoint in a campaign
  drill exercises the same ``.npz`` save/load/rotate/``latest_step`` path
  production training uses.  Non-train jobs are stateless (they restart
  from step 0, like a serving replica rejoining a pool).
* :class:`MemoryRuntime` — an in-memory stand-in for unit tests of the
  scheduler/service logic, same duck type, no disk.

Progress "steps" are the job's own units (samples for training jobs); a
checkpoint at step *k* means *k* units are durable and a restart replays
from *k*, not from zero.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from .job import Job

__all__ = ["CheckpointedRuntime", "MemoryRuntime"]

#: Checkpoint files each job directory keeps.
KEEP_LAST = 3


def _tiny_trainer(seed: int):
    """A minuscule real Trainer: enough state to make checkpoints honest."""
    from ..core.networks import Tiramisu, TiramisuConfig
    from ..core.trainer import TrainConfig, Trainer

    model = Tiramisu(
        TiramisuConfig(in_channels=4, base_filters=4, growth=4,
                       down_layers=(1,), bottleneck_layers=1,
                       kernel=3, dropout=0.0),
        rng=np.random.default_rng(seed))
    return Trainer(model, TrainConfig(lr=0.01, optimizer="sgd"))


class CheckpointedRuntime:
    """Real ``CheckpointManager``-backed progress for training jobs."""

    def __init__(self, workdir: str | Path, seed: int = 0):
        self.workdir = Path(workdir)
        self.seed = int(seed)
        self._managers: dict[str, object] = {}
        self._trainers: dict[str, object] = {}

    def _manager(self, job: Job):
        from ..core.checkpoint import CheckpointManager

        mgr = self._managers.get(job.job_id)
        if mgr is None:
            mgr = CheckpointManager(self.workdir / job.job_id / "ckpts",
                                    keep_last=KEEP_LAST)
            self._managers[job.job_id] = mgr
        return mgr

    def _trainer(self, job: Job):
        trainer = self._trainers.get(job.job_id)
        if trainer is None:
            trainer = _tiny_trainer(self.seed)
            self._trainers[job.job_id] = trainer
        return trainer

    def save(self, job: Job, step: int) -> None:
        """Checkpoint ``job`` at progress ``step`` (train jobs only)."""
        if job.kind != "train":
            return
        self._manager(job).save(self._trainer(job), step=step,
                                extra_meta={"job_id": job.job_id,
                                            "user": job.user})

    def resume_step(self, job: Job) -> int:
        """Progress step the next launch starts from (0 without history)."""
        if job.kind != "train":
            return 0
        latest = self._manager(job).latest_step()
        if latest is None:
            return 0
        # Restore the trainer so resumed state matches the step we claim;
        # in the simulation the trainer is static between checkpoints, so
        # this is exact.
        self._manager(job).load(self._trainer(job))
        return latest


class MemoryRuntime:
    """Dict-backed runtime with the same duck type (unit tests)."""

    def __init__(self):
        self.saved: dict[str, list[int]] = {}

    def save(self, job: Job, step: int) -> None:
        self.saved.setdefault(job.job_id, []).append(int(step))

    def resume_step(self, job: Job) -> int:
        steps = self.saved.get(job.job_id)
        return max(steps) if steps else 0
