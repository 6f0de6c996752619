"""File-system, node-local staging capacity, and fabric models."""
import pytest

from repro.climate import PAPER_DATASET
from repro.comm import Link
from repro.hpc import (
    FabricModel,
    PIZ_DAINT,
    SUMMIT,
    SharedFileSystem,
)


class TestSharedFileSystem:
    FS = SharedFileSystem(SUMMIT.filesystem)

    def test_saturation_metric(self):
        assert self.FS.saturation(100, 1e9) == pytest.approx(1.0)

    def test_read_time_capped(self):
        # 1000 clients at 1 GB/s each cannot exceed the 100 GB/s limit.
        t = self.FS.read_time(1e12, 1000, 1e9)
        assert t == pytest.approx(10.0)

    def test_read_time_uncapped(self):
        t = self.FS.read_time(1e10, 2, 1e9)
        assert t == pytest.approx(5.0)

    def test_zero_bytes(self):
        assert self.FS.read_time(0, 10, 1e9) == 0.0


class TestStagingCapacity:
    """Section V-A1's staging capacities, read from the machine specs."""

    def test_summit_burst_buffer_holds_node_shard(self):
        # 1500 samples/node x ~58 MB must fit the 800 GB burst buffer.
        cap = SUMMIT.node.local_storage_bytes
        assert cap // PAPER_DATASET.sample_bytes >= 1500

    def test_daint_tmpfs_much_smaller(self):
        cap = PIZ_DAINT.node.local_storage_bytes
        assert cap // PAPER_DATASET.sample_bytes < 1500
        # But per-GPU requirement (250 samples) fits.
        assert cap // PAPER_DATASET.sample_bytes >= 250


class TestFabric:
    def test_aggregate_scales_with_nodes(self):
        f1 = FabricModel(Link(1e-6, 25e9), nodes=100)
        f2 = FabricModel(Link(1e-6, 25e9), nodes=200)
        assert f2.aggregate_bandwidth == 2 * f1.aggregate_bandwidth

    def test_redistribution_time(self):
        f = FabricModel(Link(1e-6, 25e9), nodes=1024)
        t = f.redistribution_time(80e12)  # 80 TB, the naive-overlap volume
        assert 1.0 < t < 60.0  # seconds, not minutes: IB >> GPFS

    def test_zero_bytes_free(self):
        f = FabricModel(Link(1e-6, 25e9), nodes=4)
        assert f.redistribution_time(0.0) == 0.0
