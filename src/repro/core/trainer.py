"""Single-process training loop with mixed precision and weighted loss.

:mod:`repro.core.distributed` runs one of these for all simulated MPI
ranks: every rank's forward/backward goes through this trainer's model,
and the one optimizer applies the bit-identical averaged gradient once.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..framework import LossScaler, Tensor, apply_fp16_policy, no_grad
from ..framework.dtypes import FP16, FP32
from ..framework.module import Module
from ..telemetry import get_active
from .losses import class_weights, pixel_weight_map
from .metrics import SegmentationReport
from .optim import LARC, LARS, SGD, Adam, GradientLag

__all__ = ["TrainConfig", "StepResult", "Trainer", "build_optimizer"]

_OPTIMIZERS = ("sgd", "adam", "lars", "larc")
_WEIGHTINGS = ("none", "inverse", "inverse_sqrt")


@dataclass(frozen=True)
class TrainConfig:
    """Hyper-parameters for one training run."""

    lr: float = 1e-3
    optimizer: str = "larc"           # sgd | adam | lars | larc
    momentum: float = 0.9
    weight_decay: float = 1e-4
    precision: str = "fp32"           # fp32 | fp16
    loss_scale: float = 2.0**12
    dynamic_loss_scale: bool = True
    weighting: str = "inverse_sqrt"   # none | inverse | inverse_sqrt
    gradient_lag: int = 0
    num_classes: int = 3

    def __post_init__(self):
        if self.precision not in ("fp32", "fp16"):
            raise ValueError(f"unsupported precision {self.precision!r}")
        if self.optimizer not in _OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}; "
                             f"expected one of {_OPTIMIZERS}")
        if self.weighting not in _WEIGHTINGS:
            raise ValueError(f"unknown weighting strategy {self.weighting!r}; "
                             f"expected one of {_WEIGHTINGS}")


def build_optimizer(model: Module, config: TrainConfig):
    """Construct the configured optimizer (optionally lag-wrapped)."""
    params = model.parameters()
    kind = config.optimizer
    if kind == "sgd":
        opt = SGD(params, config.lr, momentum=config.momentum,
                  weight_decay=config.weight_decay)
    elif kind == "adam":
        opt = Adam(params, config.lr, weight_decay=config.weight_decay)
    elif kind == "lars":
        opt = LARS(params, config.lr, momentum=config.momentum,
                   weight_decay=config.weight_decay)
    elif kind == "larc":
        opt = LARC(params, config.lr, momentum=config.momentum,
                   weight_decay=config.weight_decay)
    else:
        raise ValueError(f"unknown optimizer {kind!r}")
    if config.gradient_lag > 0:
        return GradientLag(opt, lag=config.gradient_lag)
    return opt


@dataclass
class StepResult:
    """Outcome of one training step."""

    loss: float
    skipped: bool = False          # FP16 overflow -> update skipped
    grad_norm: float = 0.0


class Trainer:
    """Owns a model, its optimizer, precision policy, and loss weighting."""

    def __init__(self, model: Module, config: TrainConfig,
                 class_frequencies: np.ndarray | None = None,
                 telemetry=None):
        self.model = model
        self.config = config
        # Explicit session wins; None resolves the active (default disabled)
        # session at each step, so `activate(...)` works after construction.
        self.telemetry = telemetry
        freqs = (np.asarray(class_frequencies)
                 if class_frequencies is not None
                 else np.full(config.num_classes, 1.0 / config.num_classes))
        self.class_weight_table = class_weights(freqs, config.weighting).astype(np.float32)
        if config.precision == "fp16":
            apply_fp16_policy(model)
            self.scaler: LossScaler | None = LossScaler(
                init_scale=config.loss_scale, dynamic=config.dynamic_loss_scale
            )
        else:
            self.scaler = None
        self.optimizer = build_optimizer(model, config)
        self.history: list[StepResult] = []

    # -- one step ----------------------------------------------------------

    def _cast_inputs(self, images: np.ndarray) -> np.ndarray:
        if self.config.precision == "fp16":
            return images.astype(FP16)
        return images.astype(FP32)

    def compute_loss(self, images: np.ndarray, labels: np.ndarray) -> Tensor:
        from ..framework.losses import weighted_cross_entropy

        x = Tensor(self._cast_inputs(images), requires_grad=False)
        logits = self.model(x)
        wmap = pixel_weight_map(labels, self.class_weight_table)
        return weighted_cross_entropy(logits, labels, wmap)

    def train_step(self, images: np.ndarray, labels: np.ndarray) -> StepResult:
        """Forward, backward, (scaled) update; returns the step outcome."""
        tel = self.telemetry or get_active()
        tracer = tel.tracer
        self.model.train(True)
        for p in self.optimizer.params:
            p.zero_grad()
        with tracer.span("train_step", category="trainer",
                         step=len(self.history)) as step_span:
            with tracer.span("forward", category="trainer"):
                loss = self.compute_loss(images, labels)
            if self.scaler is not None:
                with tracer.span("backward", category="trainer"):
                    scaled = self.scaler.scale_loss(loss)
                    scaled.backward()
                ok = self.scaler.step(self.optimizer.params)
                if not ok:
                    tracer.instant("loss_scale_overflow", category="trainer",
                                   scale=self.scaler.scale)
                    result = StepResult(loss=float(loss.item()), skipped=True)
            else:
                ok = True
                with tracer.span("backward", category="trainer"):
                    loss.backward()
            if ok:
                gnorm = self._grad_norm()
                with tracer.span("optimizer_step", category="trainer"):
                    self.optimizer.step()
                result = StepResult(loss=float(loss.item()), grad_norm=gnorm)
        self.history.append(result)
        self._record_step_metrics(tel, step_span, result)
        return result

    def _record_step_metrics(self, tel, step_span, result: StepResult) -> None:
        if not tel.enabled:
            return
        m = tel.metrics
        m.counter("trainer.steps").inc()
        if result.skipped:
            m.counter("trainer.overflow_steps").inc()
        m.histogram("trainer.step_time_s").observe(step_span.duration_s)
        m.gauge("trainer.loss").set(result.loss)
        m.gauge("trainer.grad_norm").set(result.grad_norm)
        if self.scaler is not None:
            m.gauge("trainer.loss_scale").set(self.scaler.scale)

    def _grad_norm(self) -> float:
        total = 0.0
        for p in self.optimizer.params:
            if p.grad is not None:
                g = p.grad.astype(np.float64)
                total += float((g * g).sum())
        return float(np.sqrt(total))

    # -- loops --------------------------------------------------------------

    def train_epoch(self, batches) -> list[StepResult]:
        """Run one pass over an iterable of (images, labels) batches."""
        return [self.train_step(images, labels) for images, labels in batches]

    def evaluate(self, batches, class_names: tuple[str, ...] | None = None
                 ) -> SegmentationReport:
        """IoU/accuracy over an iterable of (images, labels) batches."""
        self.model.train(False)
        report = SegmentationReport(self.config.num_classes, class_names)
        with no_grad():
            for images, labels in batches:
                x = Tensor(self._cast_inputs(images))
                logits = self.model(x)
                preds = np.argmax(logits.data.astype(np.float32), axis=1)
                report.update(preds, labels)
        self.model.train(True)
        return report

    def predict(self, images: np.ndarray) -> np.ndarray:
        """Class-id map for a batch of images."""
        self.model.train(False)
        with no_grad():
            logits = self.model(Tensor(self._cast_inputs(images)))
        self.model.train(True)
        return np.argmax(logits.data.astype(np.float32), axis=1)
