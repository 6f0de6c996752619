"""End-to-end fault tolerance: elastic shrink, autoresume, acceptance run."""
import numpy as np
import pytest

from repro.climate import ClimateDataset, Grid, class_frequencies
from repro.core import DistributedTrainer, TrainConfig
from repro.core.networks import Tiramisu, TiramisuConfig
from repro.resilience import (FaultInjector, FaultPlan, FaultSpec,
                              RetryPolicy, mean_eval_loss,
                              run_resilient_training)

GRID = Grid(16, 24)


@pytest.fixture(scope="module")
def dataset():
    return ClimateDataset.synthesize(GRID, num_samples=16, seed=0, channels=4)


@pytest.fixture(scope="module")
def freqs(dataset):
    return class_frequencies(dataset.labels)


def factory(seed=0):
    def make():
        return Tiramisu(
            TiramisuConfig(in_channels=4, base_filters=8, growth=8,
                           down_layers=(2,), bottleneck_layers=2,
                           kernel=3, dropout=0.0),
            rng=np.random.default_rng(seed))
    return make


def provider_for(dataset):
    def provider(step, rank, world_size):
        idx = (step * world_size + rank) % len(dataset)
        return dataset.images[idx:idx + 1], dataset.labels[idx:idx + 1]
    return provider


def eval_batches_for(dataset, n=8):
    idx = (list(dataset.splits.validation) + list(dataset.splits.train))[:n]
    return [(dataset.images[i:i + 1], dataset.labels[i:i + 1]) for i in idx]


CONFIG = TrainConfig(lr=0.01, optimizer="larc")


class TestShrink:
    def test_shrink_drops_dead_and_keeps_consistency(self, dataset, freqs):
        dt = DistributedTrainer(factory(), 4, CONFIG, freqs)
        prov = provider_for(dataset)
        dt.train_step([prov(0, r, 4) for r in range(4)])
        info = dt.shrink([2], lr_scaling="none")
        assert info == {"old_size": 4, "new_size": 3,
                        "failed_ranks": [2], "lr_factor": 1.0}
        assert dt.world_size == 3 and dt.engine.world_size == 3
        assert dt.max_replica_divergence() == 0.0
        # The shrunk world still trains.
        result = dt.train_step([prov(1, r, 3) for r in range(3)])
        assert np.isfinite(result.mean_loss)
        assert dt.max_replica_divergence() == 0.0

    def test_shrink_rescales_lr(self, freqs):
        for scaling, expect in (("linear", 0.5), ("sqrt", np.sqrt(0.5)),
                                ("none", 1.0)):
            dt = DistributedTrainer(factory(), 4, CONFIG, freqs)
            lr0 = dt.trainer.optimizer.lr
            info = dt.shrink([0, 3], lr_scaling=scaling)
            assert info["lr_factor"] == pytest.approx(expect)
            assert dt.trainer.optimizer.lr == pytest.approx(lr0 * expect)

    def test_shrink_validates(self, freqs):
        dt = DistributedTrainer(factory(), 2, CONFIG, freqs)
        with pytest.raises(ValueError, match="zero survivors"):
            dt.shrink([0, 1])
        with pytest.raises(ValueError, match="out of range"):
            dt.shrink([5])


class TestResilientRun:
    def test_fault_free_run_matches_plain_distributed(self, dataset, freqs):
        prov = provider_for(dataset)
        report = run_resilient_training(factory(), CONFIG, 2, prov, steps=3,
                                        class_frequencies=freqs)
        dt = DistributedTrainer(factory(), 2, CONFIG, freqs)
        plain = [dt.train_step([prov(s, r, 2) for r in range(2)]).mean_loss
                 for s in range(3)]
        np.testing.assert_allclose(report.losses, plain, rtol=1e-6)
        assert report.steps_completed == 3
        assert report.injected == {}

    def test_acceptance_faulty_run_recovers_within_tolerance(
            self, dataset, freqs):
        """ISSUE acceptance: 8 ranks, 1 rank failure + 2 read faults,
        the run completes via elastic recovery and the final model is
        within 5% of the fault-free baseline on a fixed eval set."""
        prov = provider_for(dataset)
        evals = eval_batches_for(dataset)

        baseline = run_resilient_training(factory(), CONFIG, 8, prov,
                                          steps=6, class_frequencies=freqs)
        base_loss = mean_eval_loss(baseline.trainer, evals)

        plan = FaultPlan.parse("rank_fail@2:rank=1;read_fault@1;read_fault@4",
                               seed=0)
        faulty = run_resilient_training(factory(), CONFIG, 8, prov, steps=6,
                                        plan=plan, class_frequencies=freqs,
                                        lr_scaling="linear")

        assert faulty.steps_completed == 6
        assert faulty.start_world_size == 8
        assert faulty.final_world_size == 7     # shrank around the dead rank
        assert faulty.rank_failures == [1]
        assert faulty.recoveries == 1
        assert faulty.read_retries >= 2         # both injected reads retried
        assert faulty.injected == {"rank_fail": 1, "read_fault": 2}

        faulty_loss = mean_eval_loss(faulty.trainer, evals)
        rel = abs(faulty_loss - base_loss) / abs(base_loss)
        assert rel <= 0.05, (base_loss, faulty_loss, rel)

    def test_dropped_messages_survived_by_step_retry_or_wire(self, dataset,
                                                             freqs):
        prov = provider_for(dataset)
        plan = FaultPlan([FaultSpec("drop_msg", step=1, count=2)], seed=3)
        report = run_resilient_training(factory(), CONFIG, 4, prov, steps=3,
                                        plan=plan, class_frequencies=freqs)
        assert report.steps_completed == 3
        assert report.injected.get("drop_msg") == 2

    def test_checkpoint_autoresume(self, dataset, freqs, tmp_path):
        prov = provider_for(dataset)
        first = run_resilient_training(
            factory(), CONFIG, 2, prov, steps=4, class_frequencies=freqs,
            checkpoint_dir=tmp_path, checkpoint_every=2)
        assert first.checkpoints_saved == 2

        # A rerun on the same directory restarts from the latest checkpoint
        # (step 4) instead of step 0, and only trains the remaining steps.
        second = run_resilient_training(
            factory(), CONFIG, 2, prov, steps=6, class_frequencies=freqs,
            checkpoint_dir=tmp_path, checkpoint_every=2)
        assert second.resumed_at_step == 4
        assert second.resumed_from is not None
        assert second.steps_completed == 2

        # The resumed run reproduces an uninterrupted 6-step run exactly.
        straight = run_resilient_training(factory(), CONFIG, 2, prov,
                                          steps=6, class_frequencies=freqs)
        np.testing.assert_allclose(second.losses, straight.losses[4:],
                                   rtol=1e-6)

    def test_residuals_survive_autoresume(self, dataset, freqs, tmp_path):
        # Error-feedback residuals are comm-layer state: a resumed
        # compressed run must carry them forward bit-exactly, or the
        # compressor silently re-drops the gradient mass it had promised.
        from repro.comm import EngineConfig
        prov = provider_for(dataset)
        cfg = EngineConfig(compression="topk", compression_ratio=0.05)
        first = run_resilient_training(
            factory(), CONFIG, 2, prov, steps=2, class_frequencies=freqs,
            checkpoint_dir=tmp_path, checkpoint_every=2, engine=cfg)
        saved = first.trainer.comm_state()
        assert saved  # residuals exist after two compressed steps

        second = run_resilient_training(
            factory(), CONFIG, 2, prov, steps=4, class_frequencies=freqs,
            checkpoint_dir=tmp_path, checkpoint_every=2, engine=cfg)
        assert second.resumed_at_step == 2

        straight = run_resilient_training(
            factory(), CONFIG, 2, prov, steps=4, class_frequencies=freqs,
            engine=EngineConfig(compression="topk", compression_ratio=0.05))
        np.testing.assert_allclose(second.losses, straight.losses[2:],
                                   rtol=1e-6)
        final_resumed = second.trainer.comm_state()
        final_straight = straight.trainer.comm_state()
        for key, value in final_straight.items():
            np.testing.assert_array_equal(final_resumed[key], value)

    def test_resume_disabled_starts_fresh(self, dataset, freqs, tmp_path):
        prov = provider_for(dataset)
        run_resilient_training(factory(), CONFIG, 2, prov, steps=2,
                               class_frequencies=freqs,
                               checkpoint_dir=tmp_path, checkpoint_every=1)
        report = run_resilient_training(factory(), CONFIG, 2, prov, steps=2,
                                        class_frequencies=freqs,
                                        checkpoint_dir=tmp_path,
                                        checkpoint_every=0, resume=False)
        assert report.resumed_from is None
        assert report.steps_completed == 2


class TestReaderFaults:
    def test_threaded_reader_retries_injected_faults(self, tmp_path):
        from repro.climate.hdf5store import SampleFileStore
        from repro.io.readers import ThreadedReader

        store = SampleFileStore(tmp_path / "ds")
        for i in range(8):
            store.write_sample(i, np.zeros((2, 4, 4), dtype=np.float32),
                               np.zeros((4, 4), dtype=np.int8))
        # count < max_attempts so even if one sample absorbs every injected
        # fault its retry budget still covers them.
        plan = FaultPlan([FaultSpec("read_fault", step=0, count=2)])
        injector = FaultInjector(plan)
        injector.begin_step(0)
        reader = ThreadedReader(store, num_workers=2,
                                fault_injector=injector,
                                retry=RetryPolicy(max_attempts=3,
                                                  backoff_base_s=0.0))
        samples, result = reader.read_indices(list(range(8)))
        assert all(s is not None for s in samples)
        assert result.faults_retried == 2
        assert injector.counts["read_fault"] == 2
