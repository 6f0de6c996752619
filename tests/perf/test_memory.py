"""GPU memory-capacity model (the Section VII-A batch-size claim)."""
import numpy as np
import pytest

from repro.core.flops import paper_network
from repro.core.networks import Tiramisu, TiramisuConfig
from repro.hpc import P100, V100
from repro.perf import MemoryBudget, max_batch, training_memory

FULL = (16, 768, 1152)


@pytest.fixture(scope="module")
def deeplab():
    return paper_network("deeplabv3+")


@pytest.fixture(scope="module")
def tiramisu():
    return paper_network("tiramisu")


class TestPaperBatchLimits:
    def test_deeplab_fp32_batch_1(self, deeplab):
        assert max_batch(deeplab, FULL, "fp32", V100, limit=3) == 1

    def test_deeplab_fp16_batch_2(self, deeplab):
        assert max_batch(deeplab, FULL, "fp16", V100, limit=4) == 2

    def test_tiramisu_fp32_batch_1(self, tiramisu):
        assert max_batch(tiramisu, FULL, "fp32", V100, limit=3) == 1

    def test_tiramisu_fp16_batch_2(self, tiramisu):
        assert max_batch(tiramisu, FULL, "fp16", V100, limit=4) == 2

    def test_p100_same_16gb_story(self, tiramisu):
        # Piz Daint's P100 also has 16 GB: FP32 batch 1 there too.
        assert max_batch(tiramisu, FULL, "fp32", P100, limit=3) == 1


class TestBudgetComponents:
    def test_activations_scale_with_batch(self, tiramisu):
        b1 = training_memory(tiramisu, FULL, 1, "fp32")
        b2 = training_memory(tiramisu, FULL, 2, "fp32")
        assert b2.activations == pytest.approx(2 * b1.activations, rel=1e-6)

    def test_fp16_halves_activations(self, tiramisu):
        f32 = training_memory(tiramisu, FULL, 1, "fp32")
        f16 = training_memory(tiramisu, FULL, 1, "fp16")
        assert f16.activations == pytest.approx(f32.activations / 2, rel=1e-6)

    def test_fp16_adds_master_weights(self, tiramisu):
        f32 = training_memory(tiramisu, FULL, 1, "fp32")
        f16 = training_memory(tiramisu, FULL, 1, "fp16")
        assert f32.master_weights == 0.0
        assert f16.master_weights == pytest.approx(
            tiramisu.num_parameters() * 4)
        assert f16.weights == pytest.approx(f32.weights / 2)

    def test_activations_dominate_at_full_res(self, deeplab):
        b = training_memory(deeplab, FULL, 1, "fp32")
        assert b.activations > 3 * (b.weights + b.gradients + b.optimizer_state)

    def test_total_sums_components(self):
        b = MemoryBudget(1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
        assert b.total == 21.0

    def test_liveness_validated(self, tiramisu):
        with pytest.raises(ValueError):
            training_memory(tiramisu, FULL, 1, "fp32", liveness=0.0)

    def test_small_inputs_fit_large_batches(self):
        tiny = Tiramisu(TiramisuConfig(in_channels=4, base_filters=8, growth=4,
                                       down_layers=(2, 2), bottleneck_layers=2,
                                       kernel=3),
                        rng=np.random.default_rng(0))
        assert max_batch(tiny, (4, 32, 48), "fp32", V100, limit=16) == 16
