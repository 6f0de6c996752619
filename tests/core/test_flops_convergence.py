"""FLOP methodology (Section VI) and loss-trajectory diagnostics (Figure 6)."""
import numpy as np
import pytest

from repro.core import (
    loss_trajectory_summary,
    network_flop_table,
    paper_conv_example_flops,
)


class TestFlopMethodology:
    def test_paper_worked_example(self):
        # 3x3 conv, 1152x768, 48->32 channels, batch 2 = 48.9e9 FLOPs.
        assert paper_conv_example_flops() == pytest.approx(48.9e9, rel=0.01)
        # The same counting over the paper networks sees whole networks
        # (their TF/sample are the fig2.flops.* claims rows).
        for r in network_flop_table():
            assert r.parameters > 1e6
            assert r.kernel_count > 100


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
