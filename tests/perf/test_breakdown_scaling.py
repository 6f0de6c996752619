"""Figures 3/8/9 (kernel breakdown) and Figures 4/5 (scaling)."""
import numpy as np
import pytest

from repro.perf import (
    ScalingModel,
    figure5_curves,
    kernel_breakdown,
    weak_scaling_curve,
)
from repro.perf.claims import paper_value
from repro.hpc import PIZ_DAINT, SUMMIT


class TestBreakdown:
    @pytest.fixture(scope="class")
    def tables(self):
        return {
            (net, prec): kernel_breakdown(net, prec)
            for net in ("tiramisu", "deeplabv3+")
            for prec in ("fp32", "fp16")
        }

    def test_convolutions_dominate_fp32(self, tables):
        # Paper Figure 3: conv fwd+bwd is ~80% of FP32 step time.
        for net in ("tiramisu", "deeplabv3+"):
            t = tables[(net, "fp32")]
            pct = t.time_pct()
            conv_share = pct.get("conv_fwd", 0) + pct.get("conv_bwd", 0)
            assert conv_share > 60.0

    def test_bwd_conv_is_single_biggest_category(self, tables):
        for key, t in tables.items():
            assert t.dominant_category() == "conv_bwd"

    def test_fp16_shifts_time_to_memory_categories(self, tables):
        # With 8x faster math, point-wise + copies take a larger share.
        for net in ("tiramisu", "deeplabv3+"):
            p32 = tables[(net, "fp32")].time_pct()
            p16 = tables[(net, "fp16")].time_pct()
            mem32 = p32.get("pointwise_fwd", 0) + p32.get("copy", 0)
            mem16 = p16.get("pointwise_fwd", 0) + p16.get("copy", 0)
            assert mem16 > mem32

    def test_step_times_within_2x_of_paper(self, tables):
        for (net, prec), table in tables.items():
            fig = 8 if net == "tiramisu" else 9
            paper_ms = paper_value(f"fig{fig}.step_ms.{net}.{prec}")
            ratio = table.total_time_s * 1e3 / paper_ms
            assert 0.5 < ratio < 2.0, (net, prec, ratio)

    def test_math_totals_match_paper(self, tables):
        for (net, prec), table in tables.items():
            paper_tf = paper_value(f"fig2.flops.{net}") * table.batch
            assert table.total_flops / 1e12 == pytest.approx(paper_tf, rel=0.2)

    def test_fp16_faster_per_sample(self, tables):
        # Figs 8/9: FP16 runs batch 2 in less than twice the FP32 step.
        for net in ("tiramisu", "deeplabv3+"):
            assert (tables[(net, "fp16")].total_time_s / 2
                    < tables[(net, "fp32")].total_time_s)

    def test_fp16_total_math_doubles(self, tables):
        # Batch 2 in FP16 -> twice the per-step FLOPs of batch-1 FP32.
        for net in ("tiramisu", "deeplabv3+"):
            f32 = tables[(net, "fp32")].total_flops
            f16 = tables[(net, "fp16")].total_flops
            assert f16 == pytest.approx(2 * f32, rel=0.01)

    def test_allreduce_small_share(self, tables):
        # Paper: NCCL kernels are ~5-7% of step time.
        for t in tables.values():
            assert t.time_pct().get("allreduce", 0) < 15.0

    def test_unknown_network(self):
        with pytest.raises(ValueError):
            kernel_breakdown("unet", "fp32")


class TestWeakScaling:
    def test_exascale_peak_class(self):
        # The headline: FP16 DeepLab at 27360 GPUs lands in the EF/s class
        # (paper: 1.13 EF/s peak, 999 PF/s sustained).
        p = weak_scaling_curve("deeplabv3+", "summit", "fp16", lag=1,
                              gpu_counts=[27360])[0]
        assert 0.8e3 < p.sustained_pflops < 1.4e3

    def test_efficiency_monotone_decreasing(self):
        pts = weak_scaling_curve("deeplabv3+", "summit", "fp16", lag=1,
                                 gpu_counts=[1, 6, 96, 1536, 6144, 27360])
        effs = [p.efficiency for p in pts]
        assert all(b <= a + 1e-12 for a, b in zip(effs, effs[1:]))
        assert effs[0] == 1.0

    def test_images_scale_superlinearly_in_gpus(self):
        pts = weak_scaling_curve("tiramisu", "summit", "fp32", lag=1,
                                 gpu_counts=[6, 6144])
        assert pts[1].images_per_second > 500 * pts[0].images_per_second

    def test_lag1_beats_lag0(self):
        for n in (1536, 27360):
            p0 = weak_scaling_curve("deeplabv3+", "summit", "fp16", lag=0,
                                    gpu_counts=[n])[0]
            p1 = weak_scaling_curve("deeplabv3+", "summit", "fp16", lag=1,
                                    gpu_counts=[n])[0]
            assert p1.efficiency > p0.efficiency

    def test_centralized_control_plane_collapses(self):
        # The original Horovod scheduler is the bottleneck the paper fixed.
        hier = ScalingModel("deeplabv3+", SUMMIT, "fp16", lag=1,
                            control_plane="hierarchical").point(27360)
        cent = ScalingModel("deeplabv3+", SUMMIT, "fp16", lag=1,
                            control_plane="centralized").point(27360)
        assert cent.efficiency < 0.5 * hier.efficiency

    def test_default_gpu_counts_cover_system(self):
        pts = weak_scaling_curve("tiramisu_4ch", "piz_daint", "fp32", lag=0)
        assert pts[0].gpus == 1
        assert pts[-1].gpus == PIZ_DAINT.total_gpus

    def test_invalid_staging(self):
        with pytest.raises(ValueError):
            ScalingModel("tiramisu", SUMMIT, "fp32", staging="clairvoyant")


class TestFigure5:
    @pytest.fixture(scope="class")
    def curves(self):
        return figure5_curves(gpu_counts=[64, 512, 1024, 2048])

    def test_local_and_global_match_at_small_scale(self, curves):
        small = curves[0]
        assert small.global_fs.efficiency == pytest.approx(
            small.local.efficiency, rel=1e-6)

    def test_global_penalized_at_2048(self, curves):
        big = curves[-1]
        assert big.gpus == 2048
        assert big.global_fs.input_limited
        penalty = big.local.efficiency - big.global_fs.efficiency
        assert penalty > 0.05  # paper: ~9.5% relative loss

    def test_local_never_input_limited(self, curves):
        assert not any(c.local.input_limited for c in curves)

    def test_demand_near_fs_limit_at_2048(self, curves):
        # Paper: "the neural network is demanding nearly 110 GB/s ... very
        # close to the file system's limit of 112 GB/s".
        from repro.perf import aggregate_demand
        from repro.climate import PAPER_DATASET
        big = curves[-1]
        demand = aggregate_demand(big.global_fs, PAPER_DATASET.sample_bytes)
        limit = PIZ_DAINT.filesystem.effective_read_bandwidth
        assert 0.85 * limit < demand <= 1.05 * limit

    def test_global_throughput_saturates(self, curves):
        # images/s stops scaling once the FS is the bottleneck.
        by_gpus = {c.gpus: c for c in curves}
        gain = (by_gpus[2048].global_fs.images_per_second
                / by_gpus[1024].global_fs.images_per_second)
        assert gain < 1.8  # far below the 2x of ideal weak scaling
