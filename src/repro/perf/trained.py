"""The experiments behind the trained rows of :mod:`repro.perf.claims`.

Each function trains scaled-down networks on synthetic snapshots (seconds,
not hours) and returns the numbers its claim rows read; results are cached
so rows that share a run train once.  Only ``repro report --trained``
imports this module.
"""
from __future__ import annotations

import warnings
from functools import lru_cache

import numpy as np

from ..climate import (
    CLASS_AR,
    CLASS_NAMES,
    CLASS_TC,
    ClimateDataset,
    Grid,
    SnapshotSynthesizer,
    class_frequencies,
    detection_scores,
    make_labels,
)
from ..core import TrainConfig, Trainer, loss_trajectory_summary
from ..core.networks import DeepLabConfig, DeepLabV3Plus, Tiramisu, TiramisuConfig

__all__ = ["lag_runs", "segmentation", "weighting", "larc", "channels", "labels"]


def _tiramisu(channels: int, base: int, growth: int, seed: int) -> Tiramisu:
    return Tiramisu(TiramisuConfig(in_channels=channels, base_filters=base,
                                   growth=growth, down_layers=(2, 2),
                                   bottleneck_layers=2, kernel=3, dropout=0.0),
                    rng=np.random.default_rng(seed))


def _losses(trainer: Trainer, dataset: ClimateDataset, steps: int, batch: int,
            seed: int) -> list[float]:
    """``steps`` training steps over shuffled epochs of the training split."""
    rng = np.random.default_rng(seed)
    losses: list[float] = []
    while len(losses) < steps:
        for images, labels in dataset.batches(dataset.splits.train, batch, rng):
            losses.append(trainer.train_step(images, labels).loss)
            if len(losses) == steps:
                break
    return losses


def _epochs(trainer: Trainer, dataset: ClimateDataset, epochs: int,
            seed: int) -> int:
    """Train ``epochs`` epochs at batch 2; returns the overflow-skipped steps."""
    rng = np.random.default_rng(seed)
    return sum(trainer.train_step(images, labels).skipped
               for _ in range(epochs)
               for images, labels in dataset.batches(dataset.splits.train, 2, rng))


def _validation_iou(trainer: Trainer, dataset: ClimateDataset) -> float:
    return trainer.evaluate(dataset.batches(dataset.splits.validation, 1,
                                            drop_last=False),
                            class_names=CLASS_NAMES).mean_iou


@lru_cache(maxsize=None)
def lag_runs() -> dict[str, float]:
    """Fig 6 / §V-B4: the same run with gradient lag 0 and 1."""
    data = ClimateDataset.synthesize(Grid(16, 24), num_samples=10, seed=21,
                                     channels=4)
    freqs = class_frequencies(data.labels)
    runs = [_losses(Trainer(_tiramisu(4, 8, 4, seed=13),
                            TrainConfig(lr=0.05, optimizer="larc",
                                        gradient_lag=lag), freqs),
                    data, steps=24, batch=2, seed=0)
            for lag in (0, 1)]
    lag0, lag1 = (loss_trajectory_summary(losses) for losses in runs)
    return {"gap": abs(lag1["final"] - lag0["final"]) / lag0["initial"],
            "lag1_ratio": lag1["final"] / lag1["initial"]}


@lru_cache(maxsize=None)
def segmentation() -> dict[str, float]:
    """Fig 7: both networks' IoU and the weighted loss's TC overprediction."""
    grid = Grid(32, 48)
    # Busier skies than the defaults so every split holds TCs and ARs.
    synth = SnapshotSynthesizer(grid, mean_cyclones=4.0, mean_rivers=3.0)
    data = ClimateDataset.synthesize(grid, num_samples=16, seed=4, channels=8,
                                     synthesizer=synth)
    freqs = class_frequencies(data.labels)
    config = TrainConfig(lr=0.1, optimizer="larc", weighting="inverse_sqrt")
    trainers = {
        "tiramisu": Trainer(_tiramisu(8, 16, 8, seed=3), config, freqs),
        "deeplab": Trainer(DeepLabV3Plus(DeepLabConfig(
            in_channels=8, width=0.125, aspp_dilations=(2, 4, 6)),
            rng=np.random.default_rng(3)), config, freqs),
    }
    out = {}
    for name, trainer in trainers.items():
        _epochs(trainer, data, epochs=8, seed=0)
        out[f"{name}_iou"] = _validation_iou(trainer, data)
    train = data.splits.train
    predicted = trainers["tiramisu"].predict(data.images[train])
    out["tc_ratio"] = ((predicted == CLASS_TC).mean()
                       / (data.labels[train] == CLASS_TC).mean())
    return out


@lru_cache(maxsize=None)
def weighting() -> dict[str, float]:
    """§V-B1: the accuracy trap, minority recall and FP16 overflow skips."""
    data = ClimateDataset.synthesize(Grid(16, 24), num_samples=12, seed=8,
                                     channels=4)
    freqs = class_frequencies(data.labels)
    train = data.splits.train
    labels = data.labels[train]

    def run(strategy, precision, epochs, loss_scale):
        trainer = Trainer(_tiramisu(4, 8, 4, seed=5), TrainConfig(
            lr=0.08, optimizer="larc", weighting=strategy, precision=precision,
            loss_scale=loss_scale), freqs)
        return trainer, _epochs(trainer, data, epochs, seed=1)

    accuracy, recall = {}, {}
    for strategy in ("none", "inverse_sqrt"):
        trainer, _ = run(strategy, "fp32", 6, 2.0**12)
        predicted = trainer.predict(data.images[train])
        accuracy[strategy] = (predicted == labels).mean()
        recall[strategy] = (((predicted != 0) & (labels != 0)).sum()
                            / max((labels != 0).sum(), 1))
    with np.errstate(all="ignore"):  # the FP16 overflows are what this counts
        skips = {s: run(s, "fp16", 3, 2.0**22)[1]
                 for s in ("inverse", "inverse_sqrt")}
    return {"unweighted_acc": accuracy["none"] * 100,
            "recall_gain": recall["inverse_sqrt"] - recall["none"],
            "skip_excess": skips["inverse"] - skips["inverse_sqrt"]}


@lru_cache(maxsize=None)
def larc() -> dict[str, float]:
    """§V-B2: momentum SGD and LARC over a 80x learning-rate sweep."""
    data = ClimateDataset.synthesize(Grid(16, 24), num_samples=16, seed=30,
                                     channels=4)
    freqs = class_frequencies(data.labels)

    def diverged(optimizer, lr):
        trainer = Trainer(_tiramisu(4, 8, 4, seed=3),
                          TrainConfig(lr=lr, optimizer=optimizer, momentum=0.9),
                          freqs)
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore", RuntimeWarning)  # divergence overflows
            losses = _losses(trainer, data, steps=16, batch=4, seed=0)
        final = float(np.mean(losses[-3:]))
        return not np.isfinite(final) or final > 2 * losses[0]

    return {"larc_converged": sum(not diverged("larc", lr)
                                  for lr in (0.1, 0.5, 2.0, 8.0)),
            "sgd_diverged": sum(diverged("sgd", lr) for lr in (0.5, 2.0, 8.0))}


@lru_cache(maxsize=None)
def channels() -> dict[str, float]:
    """§V-B3: the same scenes seen through 4 and through 16 channels."""
    iou = {}
    for n in (4, 16):
        data = ClimateDataset.synthesize(Grid(24, 32), num_samples=16, seed=14,
                                         channels=n)
        trainer = Trainer(_tiramisu(n, 12, 6, seed=6),
                          TrainConfig(lr=0.1, optimizer="larc"),
                          class_frequencies(data.labels))
        _epochs(trainer, data, epochs=8, seed=3)
        iou[n] = _validation_iou(trainer, data)
    return {"iou_gain": iou[16] - iou[4]}


@lru_cache(maxsize=None)
def labels() -> dict[str, float]:
    """§III-A2: the heuristic labelers scored against the planted events."""
    grid = Grid(64, 96)
    synth = SnapshotSynthesizer(grid, mean_cyclones=3.0, mean_rivers=2.0)
    snaps = [synth.generate(seed) for seed in range(8)]
    tc = np.zeros((len(snaps), *grid.shape), dtype=np.int8)
    ar = np.zeros_like(tc)
    for i, snap in enumerate(snaps):
        for storm in snap.cyclones:
            near = grid.angular_distance_deg(storm.lat, storm.lon)
            tc[i][near <= 1.5 * storm.radius_deg] = CLASS_TC
        for river in snap.rivers:
            for lat, lon in river.waypoints:
                ar[i][grid.angular_distance_deg(lat, lon) <= river.width_deg] = CLASS_AR
    predicted = np.stack([make_labels(s) for s in snaps])
    tc_res = detection_scores(predicted, tc, CLASS_TC, min_iou=0.05)
    ar_res = detection_scores(predicted, ar, CLASS_AR, min_iou=0.05)
    return {"tc_pod": tc_res.pod, "tc_far": tc_res.far, "ar_pod": ar_res.pod}
