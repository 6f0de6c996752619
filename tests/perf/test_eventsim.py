"""Event-driven training-run simulation."""
import numpy as np
import pytest

from repro.perf import TrainingRunConfig, simulate_training_run


class TestSimulation:
    def test_deterministic_by_seed(self):
        cfg = TrainingRunConfig(ranks=8, steps=20, compute_time_s=0.5, seed=3)
        a = simulate_training_run(cfg)
        b = simulate_training_run(cfg)
        np.testing.assert_array_equal(a.step_times, b.step_times)

    def test_no_jitter_no_comm_is_exact(self):
        cfg = TrainingRunConfig(ranks=4, steps=10, compute_time_s=0.5,
                                compute_jitter=0.0, allreduce_time_s=0.0)
        res = simulate_training_run(cfg)
        np.testing.assert_allclose(res.step_times, 0.5, rtol=1e-12)
        np.testing.assert_allclose(res.barrier_waits, 0.0, atol=1e-12)
        assert res.efficiency(0.5) == pytest.approx(1.0)

    def test_barrier_wait_grows_with_ranks(self):
        # Synchronous SGD pays max-over-ranks: more ranks, more waiting.
        small = simulate_training_run(TrainingRunConfig(
            ranks=2, steps=200, compute_time_s=1.0, compute_jitter=0.05))
        big = simulate_training_run(TrainingRunConfig(
            ranks=64, steps=200, compute_time_s=1.0, compute_jitter=0.05))
        assert big.barrier_waits.mean() > small.barrier_waits.mean()

    def test_exposed_comm_adds_to_step(self):
        base = simulate_training_run(TrainingRunConfig(
            ranks=4, steps=50, compute_time_s=0.5, compute_jitter=0.0,
            allreduce_time_s=0.2, overlap_fraction=1.0))
        exposed = simulate_training_run(TrainingRunConfig(
            ranks=4, steps=50, compute_time_s=0.5, compute_jitter=0.0,
            allreduce_time_s=0.2, overlap_fraction=0.5))
        np.testing.assert_allclose(exposed.step_times - base.step_times, 0.1,
                                   rtol=1e-9)

    def test_sustained_statistics_pipeline(self):
        # The paper's Section VI methodology applies directly to the output.
        res = simulate_training_run(TrainingRunConfig(
            ranks=16, steps=300, compute_time_s=0.75, compute_jitter=0.04,
            seed=7))
        st = res.sustained()
        ideal = 16 / 0.75
        assert st.lo <= st.median <= st.hi
        assert 0.8 * ideal < st.median < ideal
        assert st.err_plus >= 0 and st.err_minus >= 0

    def test_samples_matrix_shape(self):
        res = simulate_training_run(TrainingRunConfig(
            ranks=3, steps=5, compute_time_s=0.1, batch_per_rank=2))
        assert res.samples_per_step.shape == (5, 3)
        assert (res.samples_per_step == 2).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainingRunConfig(ranks=0, steps=1, compute_time_s=1.0)
        with pytest.raises(ValueError):
            TrainingRunConfig(ranks=1, steps=1, compute_time_s=-1.0)
        with pytest.raises(ValueError):
            TrainingRunConfig(ranks=1, steps=1, compute_time_s=1.0,
                              overlap_fraction=1.5)

    def test_total_time_consistent(self):
        res = simulate_training_run(TrainingRunConfig(
            ranks=2, steps=10, compute_time_s=0.3, compute_jitter=0.02))
        assert res.total_time_s == pytest.approx(res.step_times.sum())
