"""Training checkpoints: model + optimizer + loss-scaler state.

Two-hour convergence runs on 27360 GPUs (Section VII-C) are only practical
with restartable state; this module serializes everything a
:class:`repro.core.trainer.Trainer` needs to resume bit-exactly — parameter
masters, batch-norm running statistics, momentum/Adam moments, the gradient
lag delay line, and the dynamic loss scale — into a single ``.npz`` file.

:class:`CheckpointManager` is the API: it owns a checkpoint directory,
names files by step, finds the latest restart point, and rotates old
files — the autoresume primitive :mod:`repro.resilience` builds on.
"""
from __future__ import annotations

import json
import os
import zipfile
from pathlib import Path

import numpy as np

from ..errors import (
    CheckpointConfigMismatch,
    CheckpointError,
    CheckpointFormatError,
    CheckpointNonFinite,
)
from .optim import GradientLag
from .trainer import Trainer

__all__ = ["CheckpointManager"]

_FORMAT_VERSION = 1
#: Checkpoint file names are ``<PREFIX>-<step:08d>.npz``.
PREFIX = "ckpt"


def _optimizer_state(optimizer) -> tuple[dict[str, np.ndarray], dict]:
    """Flatten optimizer state into arrays + JSON metadata."""
    arrays: dict[str, np.ndarray] = {}
    meta: dict = {"steps": getattr(optimizer, "steps", 0)}
    inner = optimizer.inner if isinstance(optimizer, GradientLag) else optimizer
    meta["inner_steps"] = inner.steps
    # Momentum / Adam buffers are keyed by parameter identity; persist them
    # by parameter name instead.
    by_id = {id(p): p.name for p in inner.params}
    for attr in ("_velocity", "_m", "_v"):
        table = getattr(inner, attr, None)
        if table:
            for pid, arr in table.items():
                arrays[f"opt.{attr}.{by_id[pid]}"] = arr
    t_table = getattr(inner, "_t", None)
    if t_table:
        meta["adam_t"] = {by_id[pid]: t for pid, t in t_table.items()}
    if isinstance(optimizer, GradientLag):
        meta["lag"] = optimizer.lag
        for i, grads in enumerate(optimizer._queue):
            for name, g in grads.items():
                arrays[f"lagq.{i}.{name}"] = g
        meta["lag_queue_len"] = len(optimizer._queue)
    return arrays, meta


def _write_checkpoint(trainer: Trainer, path: Path, step: int,
                      extra_meta: dict | None = None,
                      extra_arrays: dict[str, np.ndarray] | None = None) -> Path:
    """Serialize a trainer to ``path``.

    ``extra_arrays`` lets subsystems persist array state alongside the
    trainer (e.g. the comm engine's error-feedback residuals); they are
    namespaced under ``extra.`` and retrieved with
    :meth:`CheckpointManager.load_extra_arrays`.  State holding NaN or inf
    raises :class:`CheckpointNonFinite` before any file is written, so a
    poisoned run never becomes the restart point.
    """
    arrays: dict[str, np.ndarray] = {}
    for name, value in trainer.model.state_dict().items():
        arrays[f"model.{name}"] = value
    opt_arrays, opt_meta = _optimizer_state(trainer.optimizer)
    arrays.update(opt_arrays)
    for name, value in (extra_arrays or {}).items():
        arrays[f"extra.{name}"] = np.asarray(value)
    for name, value in arrays.items():
        if value.dtype.kind in "fc" and not np.isfinite(value).all():
            raise CheckpointNonFinite(step, name)
    meta = {
        "version": _FORMAT_VERSION,
        "optimizer": opt_meta,
        "history_len": len(trainer.history),
        "config": {
            "lr": trainer.config.lr,
            "optimizer": trainer.config.optimizer,
            "precision": trainer.config.precision,
            "weighting": trainer.config.weighting,
            "gradient_lag": trainer.config.gradient_lag,
        },
    }
    if extra_meta:
        meta["extra"] = extra_meta
    if trainer.scaler is not None:
        meta["scaler"] = {
            "scale": trainer.scaler.scale,
            "good_steps": trainer.scaler._good_steps,
            "num_overflows": trainer.scaler.num_overflows,
        }
    arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    # Written whole under a name the ``<PREFIX>-*.npz`` glob skips, then
    # renamed: a save that dies midway never becomes the latest checkpoint.
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "wb") as f:
            np.savez(f, **arrays)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def _open_checkpoint(path: Path):
    """``np.load`` a checkpoint, or raise :class:`CheckpointFormatError`
    naming ``path`` when the file is torn or not an ``.npz`` archive."""
    try:
        return np.load(path)
    except (EOFError, ValueError, zipfile.BadZipFile) as exc:
        raise CheckpointFormatError(
            f"unreadable checkpoint {path}: {exc}") from exc


def _read_checkpoint(trainer: Trainer, path: Path) -> dict:
    """Restore a trainer in place; returns the checkpoint metadata."""
    path = Path(path)
    with _open_checkpoint(path) as data:
        meta = json.loads(bytes(data["__meta__"].tobytes()).decode())
        if meta["version"] != _FORMAT_VERSION:
            raise CheckpointFormatError(
                f"unsupported checkpoint version {meta['version']}")
        saved_cfg = meta["config"]
        for key, value in saved_cfg.items():
            if getattr(trainer.config, key) != value:
                raise CheckpointConfigMismatch(
                    f"checkpoint config mismatch at {key!r}: saved {value}, "
                    f"trainer has {getattr(trainer.config, key)}"
                )
        model_state = {k[len("model."):]: data[k] for k in data.files
                       if k.startswith("model.")}
        trainer.model.load_state_dict(model_state)
        optimizer = trainer.optimizer
        inner = optimizer.inner if isinstance(optimizer, GradientLag) else optimizer
        inner.steps = meta["optimizer"]["inner_steps"]
        by_name = {p.name: p for p in inner.params}
        for key in data.files:
            if key.startswith("opt."):
                _, attr, pname = key.split(".", 2)
                getattr(inner, attr)[id(by_name[pname])] = data[key]
        if "adam_t" in meta["optimizer"]:
            inner._t = {id(by_name[n]): t
                        for n, t in meta["optimizer"]["adam_t"].items()}
        if isinstance(optimizer, GradientLag):
            optimizer.lag = meta["optimizer"]["lag"]
            optimizer._queue.clear()
            for i in range(meta["optimizer"]["lag_queue_len"]):
                prefix = f"lagq.{i}."
                grads = {k[len(prefix):]: data[k] for k in data.files
                         if k.startswith(prefix)}
                optimizer._queue.append(grads)
        if trainer.scaler is not None and "scaler" in meta:
            trainer.scaler.scale = meta["scaler"]["scale"]
            trainer.scaler._good_steps = meta["scaler"]["good_steps"]
            trainer.scaler.num_overflows = meta["scaler"]["num_overflows"]
    return meta


class CheckpointManager:
    """Owns a directory of step-named checkpoints with rotation.

    Files are ``<PREFIX>-<step:08d>.npz`` inside ``directory``; ``latest``
    resolves the newest restart point by step number (not mtime, so a
    restored/copied directory still resumes correctly), and
    ``rotate(keep_last=N)`` bounds disk use on long runs.  The resilience
    runner's autoresume path is built on exactly these four verbs.
    """

    def __init__(self, directory: str | Path, keep_last: int | None = None):
        if keep_last is not None and keep_last < 1:
            raise ValueError("keep_last must be >= 1")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.keep_last = keep_last

    # -- naming ------------------------------------------------------------

    def path_for(self, step: int) -> Path:
        return self.directory / f"{PREFIX}-{int(step):08d}.npz"

    def _step_of(self, path: Path) -> int:
        stem = path.stem
        try:
            return int(stem.rsplit("-", 1)[1])
        except (IndexError, ValueError) as exc:
            raise CheckpointFormatError(
                f"not a managed checkpoint name: {path.name}") from exc

    def checkpoints(self) -> list[Path]:
        """Managed checkpoint files, oldest first."""
        paths = self.directory.glob(f"{PREFIX}-*.npz")
        return sorted(paths, key=self._step_of)

    def latest(self) -> Path | None:
        """Newest checkpoint by step number, or ``None`` when empty."""
        found = self.checkpoints()
        return found[-1] if found else None

    def exists(self, step: int) -> bool:
        """True when a managed checkpoint for ``step`` is on disk."""
        return self.path_for(step).is_file()

    def latest_step(self) -> int | None:
        """Step number of the newest checkpoint, or ``None`` when empty.

        The restart primitive: resume logic wants "what step do I start
        from" without re-parsing ``latest()``'s filename itself.
        """
        latest = self.latest()
        return None if latest is None else self._step_of(latest)

    # -- verbs -------------------------------------------------------------

    def save(self, trainer: Trainer, step: int | None = None,
             extra_meta: dict | None = None,
             extra_arrays: dict[str, np.ndarray] | None = None) -> Path:
        """Write one checkpoint (step defaults to the trainer's history
        length) and apply the rotation policy."""
        step = len(trainer.history) if step is None else int(step)
        extra = dict(extra_meta or {})
        extra["step"] = step
        path = _write_checkpoint(trainer, self.path_for(step), step,
                                 extra_meta=extra, extra_arrays=extra_arrays)
        if self.keep_last is not None:
            self.rotate(self.keep_last)
        return path

    def load(self, trainer: Trainer, path: str | Path | None = None) -> dict:
        """Restore ``trainer`` from ``path`` (default: latest); returns
        the checkpoint metadata."""
        if path is None:
            path = self.latest()
            if path is None:
                raise CheckpointError(
                    f"no checkpoints under {self.directory}")
        return _read_checkpoint(trainer, Path(path))

    def load_extra_arrays(self, path: str | Path | None = None
                          ) -> dict[str, np.ndarray]:
        """Read the subsystem arrays stored via ``save(extra_arrays=...)``.

        Returns ``{}`` for checkpoints written before this field existed, so
        callers can restore opportunistically.
        """
        if path is None:
            path = self.latest()
            if path is None:
                raise CheckpointError(
                    f"no checkpoints under {self.directory}")
        with _open_checkpoint(Path(path)) as data:
            return {k[len("extra."):]: data[k].copy() for k in data.files
                    if k.startswith("extra.")}

    def rotate(self, keep_last: int | None = None) -> list[Path]:
        """Delete all but the newest ``keep_last`` files; returns removals."""
        keep = self.keep_last if keep_last is None else int(keep_last)
        if keep is None:
            return []
        if keep < 1:
            raise ValueError("keep_last must be >= 1")
        found = self.checkpoints()
        removed = found[:-keep] if len(found) > keep else []
        for path in removed:
            path.unlink()
        return removed
