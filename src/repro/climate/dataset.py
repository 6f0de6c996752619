"""In-memory climate segmentation dataset with paper-style splits.

The paper: "There are about 63K high-resolution samples in total, which are
split into 80% training, 10% test and 10% validation sets" (Section III-A2).
This module generates synthetic snapshots, labels them with the heuristic
pipeline, normalizes channels from training statistics, and serves sharded
batches the way a per-rank data loader would.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import Grid
from .labels import NUM_CLASSES, make_labels
from .synthesis import SnapshotSynthesizer

__all__ = ["ChannelNormalizer", "ClimateDataset", "DatasetSplits"]

#: The paper's train / validation shares; the test split takes the rest
#: (80/10/10, Section III-A2).
TRAIN_FRAC = 0.8
VAL_FRAC = 0.1


class ChannelNormalizer:
    """Per-channel standardization fit on the training split."""

    def __init__(self):
        self.mean: np.ndarray | None = None
        self.std: np.ndarray | None = None

    def fit(self, images: np.ndarray) -> "ChannelNormalizer":
        """``images`` is (N, C, H, W)."""
        self.mean = images.mean(axis=(0, 2, 3), dtype=np.float64).astype(np.float32)
        std = images.std(axis=(0, 2, 3), dtype=np.float64).astype(np.float32)
        self.std = np.maximum(std, 1e-6)
        return self

    def transform(self, images: np.ndarray) -> np.ndarray:
        if self.mean is None:
            raise RuntimeError("normalizer must be fit before transform")
        return (images - self.mean[:, None, None]) / self.std[:, None, None]


@dataclass
class DatasetSplits:
    """Index partitions matching the paper's 80/10/10 protocol."""

    train: np.ndarray
    validation: np.ndarray
    test: np.ndarray

    @staticmethod
    def make(n: int, rng: np.random.Generator) -> "DatasetSplits":
        perm = rng.permutation(n)
        n_train = int(round(TRAIN_FRAC * n))
        n_val = int(round(VAL_FRAC * n))
        return DatasetSplits(
            train=perm[:n_train],
            validation=perm[n_train : n_train + n_val],
            test=perm[n_train + n_val :],
        )


@dataclass
class ClimateDataset:
    """Labeled, normalized snapshots ready for training.

    Attributes
    ----------
    images:
        (N, C, H, W) float32, channel-normalized.
    labels:
        (N, H, W) int8 class ids.
    splits:
        80/10/10 index partitions.
    """

    grid: Grid
    images: np.ndarray
    labels: np.ndarray
    splits: DatasetSplits
    normalizer: ChannelNormalizer = field(default_factory=ChannelNormalizer)
    num_classes: int = NUM_CLASSES

    @staticmethod
    def synthesize(
        grid: Grid,
        num_samples: int,
        seed: int = 0,
        channels: int | None = None,
        synthesizer: SnapshotSynthesizer | None = None,
    ) -> "ClimateDataset":
        """Generate, label, split, and normalize ``num_samples`` snapshots.

        ``channels`` optionally restricts the input variables (the paper's
        4-channel Piz Daint configuration vs all 16 on Summit, Section V-B3);
        the first ``channels`` canonical variables are kept.
        """
        synth = synthesizer or SnapshotSynthesizer(grid)
        rng = np.random.default_rng(seed)
        images = []
        labels = []
        for i in range(num_samples):
            snap = synth.generate(seed * 1_000_003 + i)
            images.append(snap.to_array())
            labels.append(make_labels(snap))
        imgs = np.stack(images)
        labs = np.stack(labels)
        if channels is not None:
            imgs = imgs[:, :channels]
        splits = DatasetSplits.make(num_samples, rng)
        ds = ClimateDataset(grid, imgs, labs, splits)
        ds.normalizer.fit(imgs[splits.train])
        ds.images = ds.normalizer.transform(imgs).astype(np.float32)
        return ds

    # -- batching -----------------------------------------------------------

    def shard_indices(self, split: np.ndarray, rank: int,
                      world: int) -> np.ndarray:
        """Disjoint per-rank shard of a split (the staging layout: each node
        holds its own subset of the dataset, Section V-A1)."""
        if not 0 <= rank < world:
            raise ValueError(f"rank {rank} out of range for world {world}")
        return split[rank::world]

    def batches(self, indices: np.ndarray, batch_size: int,
                rng: np.random.Generator | None = None, drop_last: bool = True):
        """Yield (images, labels) minibatches; shuffled when ``rng`` given."""
        order = np.array(indices)
        if rng is not None:
            order = rng.permutation(order)
        stop = len(order) - (len(order) % batch_size if drop_last else 0)
        for start in range(0, stop, batch_size):
            sel = order[start : start + batch_size]
            if len(sel) == 0:
                continue
            yield self.images[sel], self.labels[sel]

    @property
    def channels(self) -> int:
        return self.images.shape[1]

    def __len__(self) -> int:
        return len(self.images)
