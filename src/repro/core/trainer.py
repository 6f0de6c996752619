"""Single-process training loop with mixed precision and weighted loss.

A step is three pieces, shared with :mod:`repro.core.distributed`, which
stacks its ranks into ``local_gradients`` and exchanges before ``apply``:
``local_gradients`` (forward, scaled backward), ``unscale`` (the one FP16
overflow decision, over every rank's gradients) and ``apply`` (one update).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..framework import LossScaler, Tensor, apply_fp16_policy, no_grad, rank_stack
from ..framework.dtypes import FP16, FP32
from ..framework.module import Module
from ..telemetry import get_active
from .losses import class_weights, pixel_weight_map
from .metrics import SegmentationReport
from .optim import LARC, LARS, SGD, Adam, GradientLag

__all__ = ["TrainConfig", "StepResult", "Trainer", "build_optimizer"]

_OPTIMIZERS = ("sgd", "adam", "lars", "larc")
_WEIGHTINGS = ("none", "inverse", "inverse_sqrt")
NUM_CLASSES = 3             # BG / TC / AR
WEIGHT_DECAY = 1e-4


@dataclass(frozen=True)
class TrainConfig:
    """Hyper-parameters for one training run."""

    lr: float = 1e-3
    optimizer: str = "larc"           # sgd | adam | lars | larc
    momentum: float = 0.9
    precision: str = "fp32"           # fp32 | fp16
    loss_scale: float = 2.0**12
    dynamic_loss_scale: bool = True
    weighting: str = "inverse_sqrt"   # none | inverse | inverse_sqrt
    gradient_lag: int = 0

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
                  weight_decay=WEIGHT_DECAY)
    elif kind == "adam":
        opt = Adam(params, config.lr, weight_decay=WEIGHT_DECAY)
    elif kind == "lars":
        opt = LARS(params, config.lr, momentum=config.momentum,
                   weight_decay=WEIGHT_DECAY)
    elif kind == "larc":
        opt = LARC(params, config.lr, momentum=config.momentum,
                   weight_decay=WEIGHT_DECAY)
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


def _grad_norm(grads: dict[str, np.ndarray]) -> float:
    total = 0.0
    for g in grads.values():
        g = g.astype(np.float64)
        total += float((g * g).sum())
    return float(np.sqrt(total))


class Trainer:
    """Owns a model, its optimizer, precision policy, and loss weighting."""

    def __init__(self, model: Module, config: TrainConfig,
                 class_frequencies: np.ndarray | None = None):
        self.model = model
        self.config = config
        freqs = (np.asarray(class_frequencies)
                 if class_frequencies is not None
                 else np.full(NUM_CLASSES, 1.0 / NUM_CLASSES))
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

    def local_gradients(self, images: np.ndarray, labels: np.ndarray,
                        ranks: range = range(1)) -> tuple[list, list]:
        """One forward and one (loss-scaled) backward over the equal batches
        of ``ranks`` stacked on the batch axis; returns one loss and one
        ``{name: grad}`` per rank, leaving ``p.grad`` empty.  The loss
        tensor, and with it the autograd graph, is freed on return."""
        tracer = get_active().tracer
        params = self.optimizer.params
        self.model.train(True)
        for p in params:
            p.zero_grad()
        with rank_stack(ranks):
            with tracer.span("forward", category="trainer"):
                loss = self.compute_loss(images, labels)
            with tracer.span("backward", category="trainer"):
                scaled = loss if self.scaler is None else self.scaler.scale_loss(loss)
                scaled.backward()
        grads = [{p.name: p.grad[i] if len(ranks) > 1 else p.grad
                  for p in params if p.grad is not None} for i in range(len(ranks))]
        for p in params:
            p.grad = None
        return [float(v) for v in loss.data.reshape(-1)], grads

    def unscale(self, rank_grads: list[dict[str, np.ndarray]]
                ) -> list[dict[str, np.ndarray]] | None:
        """The step's FP16 decision over every rank's local gradients:
        ``None`` (skip; the scale backs off once) if any is non-finite, else
        each rank's gradients unscaled into FP32.  Without loss scaling the
        gradients pass through unchanged."""
        scaler = self.scaler
        if scaler is None:
            return rank_grads
        finite = all(np.isfinite(g).all()
                     for grads in rank_grads for g in grads.values())
        inv = 1.0 / scaler.scale
        scaler.update(finite)
        if not finite:
            get_active().tracer.instant("loss_scale_overflow",
                                        category="trainer", scale=scaler.scale)
            return None
        return [{k: g.astype(np.float32) * inv for k, g in grads.items()}
                for grads in rank_grads]

    def apply(self, grads: dict[str, np.ndarray]) -> None:
        """One optimizer update from ``{name: grad}``."""
        for p in self.optimizer.params:
            if p.name in grads:
                p.grad = grads[p.name]
        self.optimizer.step()

    def train_step(self, images: np.ndarray, labels: np.ndarray) -> StepResult:
        """Forward, backward, (scaled) update; returns the step outcome."""
        tel = get_active()
        tracer = tel.tracer
        with tracer.span("train_step", category="trainer",
                         step=len(self.history)) as step_span:
            losses, grads = self.local_gradients(images, labels)
            unscaled = self.unscale(grads)
            result = StepResult(loss=losses[0], skipped=unscaled is None)
            if unscaled is not None:
                result.grad_norm = _grad_norm(unscaled[0])
                with tracer.span("optimizer_step", category="trainer"):
                    self.apply(unscaled[0])
        self.history.append(result)
        self.record_step(tel, result.loss, result.skipped,
                         step_span.duration_s, grad_norm=result.grad_norm)
        return result

    def record_step(self, tel, loss: float, skipped: bool, step_s: float,
                    grad_norm: float | None = None) -> None:
        """The ``trainer.*`` metrics of one step, single-process or N-rank
        (``loss`` is then the mean over ranks)."""
        if not tel.enabled:
            return
        m = tel.metrics
        m.counter("trainer.steps").inc()
        if skipped:
            m.counter("trainer.overflow_steps").inc()
        # A simulated clock nobody advanced times nothing; a zero would
        # poison the step-time series health rules sample from here.
        if step_s > 0:
            m.histogram("trainer.step_time_s").observe(step_s)
        m.gauge("trainer.loss").set(loss)
        if grad_norm is not None:
            m.gauge("trainer.grad_norm").set(grad_norm)
        if self.scaler is not None:
            m.gauge("trainer.loss_scale").set(self.scaler.scale)

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, batches, class_names: tuple[str, ...] | None = None
                 ) -> SegmentationReport:
        """IoU/accuracy over an iterable of (images, labels) batches."""
        self.model.train(False)
        report = SegmentationReport(NUM_CLASSES, class_names)
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
