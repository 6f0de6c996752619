"""Checkpointing: bit-exact training resume."""
import os

import numpy as np
import pytest

from repro.climate import ClimateDataset, Grid, class_frequencies
from repro.core import CheckpointManager, TrainConfig, Trainer
from repro.core.networks import Tiramisu, TiramisuConfig
from repro.errors import CheckpointError

GRID = Grid(16, 24)


@pytest.fixture(scope="module")
def dataset():
    return ClimateDataset.synthesize(GRID, num_samples=8, seed=17, channels=4)


def make_trainer(config=None, freqs=None, seed=42):
    model = Tiramisu(TiramisuConfig(in_channels=4, base_filters=8, growth=4,
                                    down_layers=(2, 2), bottleneck_layers=2,
                                    kernel=3, dropout=0.0),
                     rng=np.random.default_rng(seed))
    return Trainer(model, config or TrainConfig(lr=0.05, optimizer="larc"),
                   freqs)


def steps(trainer, dataset, n, seed=0):
    """Deterministic, history-free data order: step k always sees the same
    batch, so a resumed run replays exactly what the uninterrupted run saw
    (data order is the loader's job, not the checkpoint's)."""
    del seed  # kept for call-site symmetry
    losses = []
    batches = list(dataset.batches(dataset.splits.train, 2))
    for k in range(n):
        imgs, labs = batches[k % len(batches)]
        losses.append(trainer.train_step(imgs, labs).loss)
    return losses


class TestRoundtrip:
    """State-restoration fidelity, through the CheckpointManager API."""

    def test_bit_exact_resume(self, dataset, tmp_path):
        freqs = class_frequencies(dataset.labels)
        # Reference: 6 uninterrupted steps.
        ref = make_trainer(freqs=freqs)
        ref_losses = steps(ref, dataset, 6)

        # Checkpointed: 3 steps, save, rebuild, load, 3 more steps.
        a = make_trainer(freqs=freqs)
        steps(a, dataset, 3)
        CheckpointManager(tmp_path).save(a)
        b = make_trainer(freqs=freqs, seed=999)  # different init, then restored
        CheckpointManager(tmp_path).load(b)
        resumed_losses = steps(b, dataset, 3)

        # The resumed run reproduces the uninterrupted run exactly: same
        # data order (we replay the same seed stream) and same state.
        np.testing.assert_allclose(resumed_losses, ref_losses[3:], rtol=1e-6)
        for (n1, p1), (_, p2) in zip(ref.model.named_parameters(),
                                     b.model.named_parameters()):
            np.testing.assert_array_equal(p1.master_value(), p2.master_value())

    def test_momentum_state_restored(self, dataset, tmp_path):
        cfg = TrainConfig(lr=0.05, optimizer="sgd", momentum=0.9)
        a = make_trainer(cfg)
        steps(a, dataset, 2)
        mgr = CheckpointManager(tmp_path)
        mgr.save(a)
        b = make_trainer(cfg, seed=1)
        mgr.load(b)
        vel_a = {p.name: a.optimizer._velocity[id(p)] for p in a.optimizer.params
                 if id(p) in a.optimizer._velocity}
        vel_b = {p.name: b.optimizer._velocity[id(p)] for p in b.optimizer.params
                 if id(p) in b.optimizer._velocity}
        assert set(vel_a) == set(vel_b) and vel_a
        for k in vel_a:
            np.testing.assert_array_equal(vel_a[k], vel_b[k])

    def test_adam_state_restored(self, dataset, tmp_path):
        cfg = TrainConfig(lr=0.01, optimizer="adam")
        a = make_trainer(cfg)
        steps(a, dataset, 2)
        mgr = CheckpointManager(tmp_path)
        mgr.save(a)
        b = make_trainer(cfg, seed=2)
        mgr.load(b)
        assert b.optimizer._t  # step counters restored
        la = steps(a, dataset, 2, seed=5)
        lb = steps(b, dataset, 2, seed=5)
        np.testing.assert_allclose(la, lb, rtol=1e-6)

    def test_lag_queue_restored(self, dataset, tmp_path):
        cfg = TrainConfig(lr=0.05, optimizer="sgd", gradient_lag=1)
        a = make_trainer(cfg)
        steps(a, dataset, 1)  # one gradient parked in the delay line
        mgr = CheckpointManager(tmp_path)
        mgr.save(a)
        b = make_trainer(cfg, seed=3)
        mgr.load(b)
        assert len(b.optimizer._queue) == 1
        la = steps(a, dataset, 2, seed=6)
        lb = steps(b, dataset, 2, seed=6)
        np.testing.assert_allclose(la, lb, rtol=1e-6)

    def test_fp16_scaler_restored(self, dataset, tmp_path):
        cfg = TrainConfig(lr=0.01, optimizer="sgd", precision="fp16",
                          loss_scale=2.0**10)
        a = make_trainer(cfg)
        steps(a, dataset, 2)
        a.scaler.scale = 123.0
        mgr = CheckpointManager(tmp_path)
        mgr.save(a)
        b = make_trainer(cfg, seed=4)
        mgr.load(b)
        assert b.scaler.scale == 123.0

    def test_config_mismatch_rejected(self, dataset, tmp_path):
        a = make_trainer(TrainConfig(lr=0.05, optimizer="sgd"))
        mgr = CheckpointManager(tmp_path)
        mgr.save(a)
        b = make_trainer(TrainConfig(lr=0.05, optimizer="adam"))
        with pytest.raises(ValueError, match="mismatch"):
            mgr.load(b)

    def test_metadata_returned(self, dataset, tmp_path):
        a = make_trainer()
        steps(a, dataset, 1)
        mgr = CheckpointManager(tmp_path)
        mgr.save(a)
        b = make_trainer(seed=5)
        meta = mgr.load(b)
        assert meta["history_len"] == 1
        assert meta["config"]["optimizer"] == "larc"


class TestCheckpointManager:
    def test_save_load_roundtrip(self, dataset, tmp_path):
        freqs = class_frequencies(dataset.labels)
        ref = make_trainer(freqs=freqs)
        ref_losses = steps(ref, dataset, 6)

        a = make_trainer(freqs=freqs)
        steps(a, dataset, 3)
        mgr = CheckpointManager(tmp_path / "ckpts")
        path = mgr.save(a)
        assert path.exists() and path.suffix == ".npz"
        b = make_trainer(freqs=freqs, seed=999)
        meta = CheckpointManager(tmp_path / "ckpts").load(b)
        assert meta["extra"]["step"] == 3
        resumed = steps(b, dataset, 3)
        np.testing.assert_allclose(resumed, ref_losses[3:], rtol=1e-6)

    def test_step_naming_and_latest(self, dataset, tmp_path):
        mgr = CheckpointManager(tmp_path)
        a = make_trainer()
        for step in (1, 12, 3):
            mgr.save(a, step=step)
        assert mgr.latest().name == "ckpt-00000012.npz"
        assert [p.name for p in mgr.checkpoints()] == [
            "ckpt-00000001.npz", "ckpt-00000003.npz", "ckpt-00000012.npz"]

    def test_latest_empty_directory(self, tmp_path):
        assert CheckpointManager(tmp_path).latest() is None

    def test_exists_and_latest_step(self, dataset, tmp_path):
        mgr = CheckpointManager(tmp_path)
        assert mgr.latest_step() is None
        assert not mgr.exists(3)
        a = make_trainer()
        for step in (3, 41, 7):
            mgr.save(a, step=step)
        assert mgr.exists(3) and mgr.exists(7) and mgr.exists(41)
        assert not mgr.exists(4)
        assert mgr.latest_step() == 41

    def test_latest_step_matches_latest_path(self, dataset, tmp_path):
        mgr = CheckpointManager(tmp_path)
        mgr.save(make_trainer(), step=12)
        assert mgr.latest().name == "ckpt-00000012.npz"
        assert mgr.latest_step() == 12

    def test_load_without_checkpoints_raises(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        with pytest.raises(CheckpointError, match="no checkpoints"):
            mgr.load(make_trainer())

    def test_rotate_keeps_newest(self, dataset, tmp_path):
        mgr = CheckpointManager(tmp_path)
        a = make_trainer()
        for step in range(5):
            mgr.save(a, step=step)
        removed = mgr.rotate(keep_last=2)
        assert len(removed) == 3
        assert [p.name for p in mgr.checkpoints()] == [
            "ckpt-00000003.npz", "ckpt-00000004.npz"]

    def test_keep_last_rotates_on_save(self, dataset, tmp_path):
        mgr = CheckpointManager(tmp_path, keep_last=2)
        a = make_trainer()
        for step in range(4):
            mgr.save(a, step=step)
        assert len(mgr.checkpoints()) == 2
        assert mgr.latest().name == "ckpt-00000003.npz"

    def test_extra_metadata_persisted(self, dataset, tmp_path):
        mgr = CheckpointManager(tmp_path)
        a = make_trainer()
        mgr.save(a, step=7, extra_meta={"world_size": 8})
        b = make_trainer(seed=1)
        meta = mgr.load(b)
        assert meta["extra"] == {"world_size": 8, "step": 7}

    def test_foreign_files_ignored(self, dataset, tmp_path):
        (tmp_path / "notes.txt").write_text("not a checkpoint")
        mgr = CheckpointManager(tmp_path)
        mgr.save(make_trainer(), step=1)
        assert len(mgr.checkpoints()) == 1

    def test_extra_arrays_roundtrip_bit_exact(self, dataset, tmp_path):
        # Comm-layer state (error-feedback residuals) rides checkpoints as
        # extra arrays, orthogonal to model/optimizer state.
        rng = np.random.default_rng(11)
        extra = {"rank0.stem.w": rng.normal(size=57).astype(np.float32),
                 "rank1.stem.w": rng.normal(size=57).astype(np.float32)}
        mgr = CheckpointManager(tmp_path)
        mgr.save(make_trainer(), step=2, extra_arrays=extra)
        loaded = mgr.load_extra_arrays()
        assert sorted(loaded) == sorted(extra)
        for key, value in extra.items():
            np.testing.assert_array_equal(loaded[key], value)

    def test_extra_arrays_do_not_leak_into_model(self, dataset, tmp_path):
        mgr = CheckpointManager(tmp_path)
        a = make_trainer()
        mgr.save(a, step=1,
                 extra_arrays={"rank0.x": np.ones(3, dtype=np.float32)})
        b = make_trainer(seed=5)
        mgr.load(b)
        for (_, p1), (_, p2) in zip(a.model.named_parameters(),
                                    b.model.named_parameters()):
            np.testing.assert_array_equal(p1.master_value(), p2.master_value())

    def test_extra_arrays_absent_in_old_checkpoints(self, dataset, tmp_path):
        mgr = CheckpointManager(tmp_path)
        mgr.save(make_trainer(), step=1)
        assert mgr.load_extra_arrays() == {}


class TestTornCheckpoints:
    """A save that dies midway must not break autoresume with a raw
    ``zipfile``/``EOFError``."""

    def test_truncated_checkpoint_raises_checkpoint_error(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        path = mgr.save(make_trainer(), step=2)
        data = path.read_bytes()
        for size in (0, 3, 10, len(data) // 2, len(data) - 30, len(data) - 1):
            path.write_bytes(data[:size])
            assert mgr.latest() == path
            with pytest.raises(CheckpointError, match=path.name):
                mgr.load(make_trainer())
            with pytest.raises(CheckpointError, match=path.name):
                mgr.load_extra_arrays()

    def test_interrupted_save_keeps_previous_latest(self, tmp_path,
                                                    monkeypatch):
        mgr = CheckpointManager(tmp_path)
        trainer = make_trainer()
        first = mgr.save(trainer, step=1)

        def crash(src, dst):
            raise OSError("killed mid-save")

        monkeypatch.setattr(os, "replace", crash)
        with pytest.raises(OSError, match="killed mid-save"):
            mgr.save(trainer, step=2)
        monkeypatch.undo()
        assert mgr.latest() == first
        assert sorted(p.name for p in tmp_path.iterdir()) == [first.name]
        mgr.load(make_trainer(seed=1))
