"""Segmentation networks: geometry, gradients, paper configurations."""
import numpy as np
import pytest

from repro.framework import Tensor
from repro.framework.init import shape_only
from repro.core.flops import paper_graph
from repro.core.networks import (
    ASPP,
    DeepLabConfig,
    DeepLabV3Plus,
    ResNetConfig,
    ResNetEncoder,
    Tiramisu,
    TiramisuConfig,
    deeplab_modified,
    deeplab_stock,
    tiramisu_modified,
    tiramisu_original,
)

RNG = np.random.default_rng(0)


def tiny_tiramisu(**kw):
    defaults = dict(in_channels=4, num_classes=3, base_filters=8, growth=4,
                    down_layers=(2, 2), bottleneck_layers=2, kernel=3, dropout=0.0)
    defaults.update(kw)
    return Tiramisu(TiramisuConfig(**defaults), rng=np.random.default_rng(1))


class TestTiramisuConfig:
    def test_paper_modified_preset(self):
        # Growth 32, blocks (2,2,2,4,5), 5x5 convs (Section V-B5).
        net = tiramisu_modified()
        assert net.config.growth == 32
        assert net.config.down_layers == (2, 2, 2, 4, 5)
        assert net.config.kernel == 5

    def test_paper_original_preset(self):
        # Growth 16, double-depth blocks, 3x3 convs.
        net = tiramisu_original()
        assert net.config.growth == 16
        assert net.config.kernel == 3
        assert net.config.down_layers == (4, 4, 4, 8, 10)

    def test_depth_divisor(self):
        assert TiramisuConfig().depth_divisor == 32
        assert TiramisuConfig(down_layers=(2, 2)).depth_divisor == 4

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            TiramisuConfig(kernel=4)


class TestTiramisuForward:
    def test_output_shape_matches_input(self):
        net = tiny_tiramisu()
        x = Tensor(RNG.normal(size=(2, 4, 16, 24)).astype(np.float32))
        out = net(x)
        assert out.shape == (2, 3, 16, 24)

    def test_indivisible_input_raises(self):
        net = tiny_tiramisu()
        x = Tensor(np.zeros((1, 4, 18, 24), dtype=np.float32))
        with pytest.raises(ValueError, match="divisible"):
            net(x)

    def test_all_parameters_receive_grads(self):
        net = tiny_tiramisu()
        x = Tensor(RNG.normal(size=(1, 4, 8, 8)).astype(np.float32))
        net(x).sum().backward()
        missing = [n for n, p in net.named_parameters() if p.grad is None]
        assert missing == []

    def test_trace_matches_eager_shape(self):
        net = tiny_tiramisu()
        analysis = net.analyze((4, 16, 24), batch=2)
        assert analysis.total_flops > 0
        # No exception from the probe path, and conv work dominates.
        assert analysis.category_flops("conv_fwd") > analysis.category_flops("pointwise_fwd")

    def test_growth_increases_params(self):
        small = tiny_tiramisu(growth=4)
        big = tiny_tiramisu(growth=8)
        assert big.num_parameters() > small.num_parameters()

    def test_paper_flops_tiramisu(self):
        # Figure 2: 4.188 TF/sample for the 16-channel modified Tiramisu.
        a, _ = paper_graph("tiramisu", 1, "fp32")
        assert a.flops_per_sample() / 1e12 == pytest.approx(4.188, rel=0.15)

    def test_paper_flops_tiramisu_4ch(self):
        # Figure 2: 3.703 TF/sample with 4 input channels (Piz Daint).
        a, _ = paper_graph("tiramisu_4ch", 1, "fp32")
        assert a.flops_per_sample() / 1e12 == pytest.approx(3.703, rel=0.15)


class TestResNetEncoder:
    def test_output_stride_8(self):
        enc = ResNetEncoder(ResNetConfig(in_channels=4, width=0.125),
                            rng=np.random.default_rng(2))
        x = Tensor(RNG.normal(size=(1, 4, 32, 48)).astype(np.float32))
        feats, low = enc(x)
        assert feats.shape[2:] == (4, 6)      # H/8, W/8
        assert low.shape[2:] == (8, 12)       # H/4, W/4

    def test_channel_widths(self):
        enc = ResNetEncoder(ResNetConfig(in_channels=16, width=1.0))
        assert enc.out_channels == 2048
        assert enc.low_level_channels == 256

    def test_width_scaling(self):
        enc = ResNetEncoder(ResNetConfig(in_channels=4, width=0.25))
        assert enc.out_channels == 512

    def test_indivisible_raises(self):
        enc = ResNetEncoder(ResNetConfig(in_channels=4, width=0.125))
        with pytest.raises(ValueError, match="divisible"):
            enc(Tensor(np.zeros((1, 4, 30, 48), dtype=np.float32)))

    def test_resnet50_block_counts(self):
        enc = ResNetEncoder(ResNetConfig(in_channels=4, width=0.125))
        assert [len(stage) for stage in enc.stages] == [3, 4, 6, 3]

    def test_atrous_stages(self):
        enc = ResNetEncoder(ResNetConfig(in_channels=4, width=0.125))
        # Stage 3 blocks use dilation 2, stage 4 dilation 4 (Figure 1).
        assert enc.stages[2][0].conv2.dilation == 2
        assert enc.stages[3][0].conv2.dilation == 4


class TestASPP:
    def test_paper_dilations(self):
        aspp = ASPP(64, 16)
        dil = [b.conv.dilation for b in aspp.atrous_branches]
        assert dil == [12, 24, 36]

    def test_preserves_spatial(self):
        aspp = ASPP(8, 4, dilations=(2, 4), rng=np.random.default_rng(3))
        x = Tensor(RNG.normal(size=(1, 8, 16, 16)).astype(np.float32))
        out = aspp(x)
        assert out.shape == (1, 4, 16, 16)


class TestDeepLab:
    def test_fullres_output_shape(self):
        net = deeplab_modified(in_channels=4, width=0.125,
                               rng=np.random.default_rng(4))
        x = Tensor(RNG.normal(size=(1, 4, 16, 24)).astype(np.float32))
        assert net(x).shape == (1, 3, 16, 24)

    def test_stock_output_shape_also_fullres_logits(self):
        net = deeplab_stock(in_channels=4, width=0.125,
                            rng=np.random.default_rng(5))
        x = Tensor(RNG.normal(size=(1, 4, 16, 24)).astype(np.float32))
        assert net(x).shape == (1, 3, 16, 24)

    def test_stock_cheaper_than_fullres(self):
        # The paper paid for the full-res decoder; stock cuts decoder FLOPs.
        full, _ = paper_graph("deeplabv3+", 1, "fp32", height=96, width=144)
        with shape_only():
            stock = deeplab_stock(in_channels=16).analyze((16, 96, 144))
        assert stock.total_flops < full.total_flops

    def test_paper_flops_deeplab(self):
        # Figure 2: 14.41 TF/sample.
        a, _ = paper_graph("deeplabv3+", 1, "fp32")
        assert a.flops_per_sample() / 1e12 == pytest.approx(14.41, rel=0.15)

    def test_gradients_flow_everywhere(self):
        net = deeplab_modified(in_channels=4, width=0.125,
                               rng=np.random.default_rng(6))
        x = Tensor(RNG.normal(size=(1, 4, 8, 8)).astype(np.float32))
        net(x).sum().backward()
        missing = [n for n, p in net.named_parameters() if p.grad is None]
        assert missing == []

    def test_invalid_decoder(self):
        with pytest.raises(ValueError):
            DeepLabConfig(decoder="octree")

    def test_deterministic_construction(self):
        a = deeplab_modified(in_channels=4, width=0.125, rng=np.random.default_rng(7))
        b = deeplab_modified(in_channels=4, width=0.125, rng=np.random.default_rng(7))
        for (na, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)


class TestArchitectureComparison:
    def test_deeplab_heavier_than_tiramisu(self):
        # Paper: "the atrous convolutions result in a more computationally
        # expensive network than Tiramisu" (14.41 vs 4.188 TF/sample).
        dl, _ = paper_graph("deeplabv3+", 1, "fp32", height=96, width=192)
        tm, _ = paper_graph("tiramisu", 1, "fp32", height=96, width=192)
        assert dl.total_flops > 2 * tm.total_flops
