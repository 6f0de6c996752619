"""Spatial model parallelism: halo exchange + distributed convolution."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import World, halo_exchange, split_stripes, stripe_bounds
from repro.core.spatial import (
    SpatialPartition,
    activation_bytes_per_rank,
    distributed_conv2d,
    halo_rows_for,
)
from repro.framework.ops import conv2d_forward

RNG = np.random.default_rng(0)


class TestStripes:
    def test_bounds_cover_exactly(self):
        bounds = stripe_bounds(17, 4)
        assert bounds[0][0] == 0 and bounds[-1][1] == 17
        for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
            assert hi == lo
        sizes = [hi - lo for lo, hi in bounds]
        assert max(sizes) - min(sizes) <= 1

    def test_split_gather_roundtrip(self):
        x = RNG.normal(size=(2, 3, 12, 8))
        parts = split_stripes(x, 3)
        np.testing.assert_array_equal(np.concatenate(parts, axis=2), x)

    def test_too_many_ranks(self):
        with pytest.raises(ValueError):
            stripe_bounds(3, 5)


class TestHaloExchange:
    def test_interior_halos_match_neighbours(self):
        x = RNG.normal(size=(1, 2, 12, 6))
        world = World(3)
        stripes = split_stripes(x, 3)
        padded = halo_exchange(world, stripes, halo=2)
        # Rank 1's top halo == rank 0's bottom rows.
        np.testing.assert_array_equal(padded[1][:, :, :2], stripes[0][:, :, -2:])
        # Rank 1's bottom halo == rank 2's top rows.
        np.testing.assert_array_equal(padded[1][:, :, -2:], stripes[2][:, :, :2])

    def test_boundary_ranks_zero_padded(self):
        x = RNG.normal(size=(1, 1, 9, 4))
        world = World(3)
        padded = halo_exchange(world, split_stripes(x, 3), halo=1)
        assert (padded[0][:, :, :1] == 0).all()
        assert (padded[-1][:, :, -1:] == 0).all()

    def test_zero_halo_copies(self):
        x = RNG.normal(size=(1, 1, 6, 4))
        world = World(2)
        stripes = split_stripes(x, 2)
        padded = halo_exchange(world, stripes, halo=0)
        np.testing.assert_array_equal(padded[0], stripes[0])
        assert padded[0] is not stripes[0]

    def test_halo_bigger_than_stripe_rejected(self):
        world = World(4)
        stripes = split_stripes(RNG.normal(size=(1, 1, 8, 4)), 4)
        with pytest.raises(ValueError, match="halo"):
            halo_exchange(world, stripes, halo=3)

    def test_message_count(self):
        world = World(4)
        stripes = split_stripes(RNG.normal(size=(1, 1, 16, 4)), 4)
        halo_exchange(world, stripes, halo=1)
        # 3 interior boundaries x 2 directions.
        assert world.stats.total_messages == 6


class TestDistributedConv:
    @pytest.mark.parametrize("kernel,dilation,ranks", [
        (3, 1, 2), (3, 1, 4), (5, 1, 3), (3, 2, 2), (3, 4, 2), (1, 1, 3),
        (3, 1, 6),
    ])
    def test_matches_single_device(self, kernel, dilation, ranks):
        x = RNG.normal(size=(2, 3, 24, 10))
        w = RNG.normal(size=(4, 3, kernel, kernel))
        pad = dilation * (kernel - 1) // 2
        expect = conv2d_forward(x, w, stride=1, padding=pad, dilation=dilation)
        world = World(ranks)
        stripes = distributed_conv2d(world, split_stripes(x, ranks), w,
                                     dilation=dilation)
        got = np.concatenate(stripes, axis=2)
        np.testing.assert_allclose(got, expect, rtol=1e-10, atol=1e-10)
        # One halo message each way per interior boundary; 1x1 needs none.
        assert world.stats.total_messages == (2 * (ranks - 1) if kernel > 1 else 0)

    def test_partition_api_chain(self):
        x = RNG.normal(size=(1, 2, 16, 8))
        w1 = RNG.normal(size=(4, 2, 3, 3))
        w2 = RNG.normal(size=(3, 4, 3, 3))
        world = World(4)
        part = SpatialPartition.scatter(world, x)
        out = part.conv2d(w1).conv2d(w2, dilation=2).gather()
        ref = conv2d_forward(conv2d_forward(x, w1, 1, 1, 1), w2, 1, 2, 2)
        np.testing.assert_allclose(out, ref, rtol=1e-10, atol=1e-10)
        assert sum(part.stripe_heights) == 16

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            halo_rows_for(4)

    def test_non_square_kernel_rejected(self):
        world = World(2)
        stripes = split_stripes(RNG.normal(size=(1, 1, 8, 4)), 2)
        with pytest.raises(ValueError, match="square"):
            distributed_conv2d(world, stripes, RNG.normal(size=(1, 1, 3, 5)))

    @given(st.integers(2, 4), st.sampled_from([1, 2]), st.integers(12, 24))
    @settings(max_examples=15, deadline=None)
    def test_property_exactness(self, ranks, dilation, height):
        rng = np.random.default_rng(ranks * 100 + height)
        x = rng.normal(size=(1, 2, height, 6))
        w = rng.normal(size=(2, 2, 3, 3))
        pad = dilation
        expect = conv2d_forward(x, w, 1, pad, dilation)
        world = World(ranks)
        got = np.concatenate(
            distributed_conv2d(world, split_stripes(x, ranks), w, dilation),
            axis=2)
        np.testing.assert_allclose(got, expect, rtol=1e-9, atol=1e-9)


class TestMemoryPlanning:
    def test_paper_decoder_activation_fits_after_split(self):
        # The full-res decoder's 1152x768x256 FP32 activation is ~0.9 GB;
        # striped over 6 GPUs it drops ~6x (plus halo slivers).
        full, per_rank = activation_bytes_per_rank(
            batch=1, channels=256, height=768, width=1152, ranks=6, kernel=3)
        assert full == pytest.approx(0.906e9, rel=0.01)
        assert per_rank < full / 5
        assert per_rank > full / 7  # halo overhead is small but nonzero

    def test_halo_grows_with_dilation(self):
        assert halo_rows_for(3, 4) > halo_rows_for(3, 1)
