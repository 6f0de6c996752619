"""Roofline time model and the Figure 2 single-GPU table."""
import numpy as np
import pytest

from repro.framework.graph import GraphAnalysis, KernelRecord
from repro.framework.dtypes import Precision
from repro.hpc import P100, V100
from repro.perf import (
    EFFICIENCY_TABLE,
    KernelTimeModel,
    figure2_table,
    single_gpu_performance,
)
from repro.perf.kernels import LAUNCH_OVERHEAD_S

#: The five Figure 2 configurations: (network, gpu, precision).
FIG2 = [("deeplabv3+", "V100", "fp16"), ("deeplabv3+", "V100", "fp32"),
        ("tiramisu", "V100", "fp16"), ("tiramisu", "V100", "fp32"),
        ("tiramisu_4ch", "P100", "fp32")]


def analysis_of(records, batch=1, precision="fp32"):
    return GraphAnalysis(records, batch, Precision(precision))


class TestKernelTimeModel:
    def test_math_bound_kernel(self):
        # Enormous FLOPs, no bytes: time = launch + flops / (peak * eff).
        rec = KernelRecord("conv3x3_fwd", "conv_fwd", int(1e12), 1)
        model = KernelTimeModel(V100, "fp32")
        ct = model.category_time(analysis_of([rec]), "conv_fwd")
        eff = EFFICIENCY_TABLE[("conv_fwd", "fp32")].math
        assert ct.time_s == pytest.approx(
            LAUNCH_OVERHEAD_S + 1e12 / (V100.fp32_peak * eff))

    def test_memory_bound_kernel(self):
        rec = KernelRecord("relu_fwd", "pointwise_fwd", 10, int(1e9))
        model = KernelTimeModel(V100, "fp32")
        ct = model.category_time(analysis_of([rec]), "pointwise_fwd")
        eff = EFFICIENCY_TABLE[("pointwise_fwd", "fp32")].memory
        assert ct.time_s == pytest.approx(
            LAUNCH_OVERHEAD_S + 1e9 / (V100.mem_bandwidth * eff))

    def test_5x5_modifier_slows_math(self):
        r3 = KernelRecord("conv3x3_fwd", "conv_fwd", int(1e12), 1)
        r5 = KernelRecord("conv5x5_fwd", "conv_fwd", int(1e12), 1)
        model = KernelTimeModel(V100, "fp32")
        t3 = model.category_time(analysis_of([r3]), "conv_fwd").time_s
        t5 = model.category_time(analysis_of([r5]), "conv_fwd").time_s
        assert t5 > t3

    def test_launch_overhead_counts_kernels(self):
        rec = KernelRecord("tiny", "optimizer", 0, 0, count=1000)
        model = KernelTimeModel(V100, "fp32")
        ct = model.category_time(analysis_of([rec]), "optimizer")
        assert ct.time_s == pytest.approx(1000 * LAUNCH_OVERHEAD_S)

    def test_step_time_sums_categories(self):
        recs = [KernelRecord("conv3x3_fwd", "conv_fwd", int(1e11), int(1e8)),
                KernelRecord("relu_fwd", "pointwise_fwd", 10, int(1e9))]
        model = KernelTimeModel(V100, "fp32")
        a = analysis_of(recs)
        total = model.step_time(a)
        parts = [ct.time_s for ct in model.breakdown(a)]
        assert total == pytest.approx(sum(parts))

    def test_efficiency_table_covers_all_categories(self):
        from repro.framework.graph import CATEGORIES
        for cat in CATEGORIES:
            for prec in ("fp32", "fp16"):
                assert (cat, prec) in EFFICIENCY_TABLE

    def test_invalid_precision(self):
        with pytest.raises(ValueError):
            KernelTimeModel(V100, "int8")

    def test_pct_peaks_bounded(self):
        rec = KernelRecord("conv3x3_fwd", "conv_fwd", int(1e11), int(1e9))
        model = KernelTimeModel(V100, "fp32")
        ct = model.category_time(analysis_of([rec]), "conv_fwd")
        assert 0 < ct.pct_math_peak <= 100.0
        assert 0 < ct.pct_mem_peak <= 100.0


class TestFigure2:
    @pytest.fixture(scope="class")
    def table(self):
        return {(p.network, p.gpu, p.precision): p for p in figure2_table()}

    def test_all_five_rows(self, table):
        assert set(table) == set(FIG2)

    def test_efficiency_ordering_matches_paper(self, table):
        # Paper: DeepLab FP32 (80%) > Tiramisu FP32 (51%) > DeepLab FP16
        # (31%) > Tiramisu FP16 (17%).
        o = [table[("deeplabv3+", "V100", "fp32")].pct_peak,
             table[("tiramisu", "V100", "fp32")].pct_peak,
             table[("deeplabv3+", "V100", "fp16")].pct_peak,
             table[("tiramisu", "V100", "fp16")].pct_peak]
        assert o[0] > o[1] > o[2] > o[3]

    def test_fp16_batch_two(self, table):
        assert table[("deeplabv3+", "V100", "fp16")].batch == 2
        assert table[("deeplabv3+", "V100", "fp32")].batch == 1

    def test_fp16_faster_but_less_efficient(self, table):
        fp16 = table[("tiramisu", "V100", "fp16")]
        fp32 = table[("tiramisu", "V100", "fp32")]
        assert fp16.samples_per_second > fp32.samples_per_second
        assert fp16.pct_peak < fp32.pct_peak

    def test_p100_slower_than_v100(self, table):
        p100 = table[("tiramisu_4ch", "P100", "fp32")]
        v100 = table[("tiramisu", "V100", "fp32")]
        assert p100.samples_per_second < v100.samples_per_second

    def test_unknown_network(self):
        with pytest.raises(ValueError):
            single_gpu_performance("resnext", V100, "fp32")
