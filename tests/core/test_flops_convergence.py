"""FLOP methodology (Section VI) and convergence curves (Figure 6)."""
import numpy as np
import pytest

from repro.core import (
    loss_trajectory_summary,
    network_flop_table,
    paper_conv_example_flops,
    wall_clock_curve,
)
from repro.core.convergence import ConvergenceCurve
from repro.perf.claims import paper_value


class TestFlopMethodology:
    def test_paper_worked_example(self):
        # 3x3 conv, 1152x768, 48->32 channels, batch 2 = 48.9e9 FLOPs.
        assert paper_conv_example_flops() == pytest.approx(48.9e9, rel=0.01)

    def test_ratio_property(self):
        rows = network_flop_table()
        for r in rows:
            assert 0.8 < r.tf_per_sample / paper_value(f"fig2.flops.{r.name}") < 1.2
            assert r.parameters > 1e6
            assert r.kernel_count > 100


class TestConvergenceCurves:
    LOSSES = list(np.linspace(1400, 300, 60))

    def test_wall_clock_mapping_monotone(self):
        c = wall_clock_curve(self.LOSSES, "tiramisu", gpus=384, precision="fp32")
        assert len(c.times_s) == 60
        assert (np.diff(c.times_s) > 0).all()

    def test_fp16_finishes_sooner(self):
        # The paper's Figure 6 observation: FP16 converges in less wall time
        # because steps are faster (same trajectory).
        c32 = wall_clock_curve(self.LOSSES, "deeplabv3+", 1536, "fp32")
        c16 = wall_clock_curve(self.LOSSES, "deeplabv3+", 1536, "fp16")
        # Per-sample wall time: fp16 runs batch 2 per step.
        t32 = c32.times_s[-1]
        t16 = c16.times_s[-1] / 2
        assert t16 < t32

    def test_lag_changes_little(self):
        c0 = wall_clock_curve(self.LOSSES, "deeplabv3+", 1536, "fp16", lag=0)
        c1 = wall_clock_curve(self.LOSSES, "deeplabv3+", 1536, "fp16", lag=1)
        assert c1.times_s[-1] <= c0.times_s[-1]
        assert abs(c1.times_s[-1] - c0.times_s[-1]) / c0.times_s[-1] < 0.2

    def test_moving_average_smooths(self):
        noisy = 500 + 50 * np.sin(np.arange(100)) + np.linspace(500, 0, 100)
        c = ConvergenceCurve("x", np.arange(100.0), noisy, 1, "fp32", 0)
        smooth = c.moving_average(10)
        assert smooth.std() < noisy.std()

    def test_time_to_loss(self):
        c = wall_clock_curve(self.LOSSES, "tiramisu", 384, "fp32")
        t = c.time_to_loss(800.0)
        assert t is not None and t > 0
        assert c.time_to_loss(-100.0) is None

    def test_label_default(self):
        c = wall_clock_curve([1.0, 0.5], "tiramisu", 384, "fp32", lag=1)
        assert "384" in c.label and "lag=1" in c.label


class TestTrajectorySummary:
    def test_converging_series(self):
        s = loss_trajectory_summary(np.linspace(10, 1, 50))
        assert s["converging"]
        assert s["reduction"] > 0
        assert s["monotone_fraction"] == 1.0

    def test_diverging_series(self):
        s = loss_trajectory_summary(np.linspace(1, 10, 50))
        assert not s["converging"]

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            loss_trajectory_summary(np.array([1.0, 2.0]))
