"""Staging strategies: paper time windows and functional protocol."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.climate import PAPER_DATASET
from repro.comm import World
from repro.hpc import PIZ_DAINT, SUMMIT
from repro.io import assign_disjoint_pieces, plan_staging, stage_distributed
from repro.io.readers import scaled_read_bandwidth
from repro.io.staging import READER_THREADS

FILE_BYTES = PAPER_DATASET.sample_bytes
N_FILES = PAPER_DATASET.num_samples


class TestPlanStaging:
    def test_naive_1024_nodes_paper_window(self):
        # "required 10-20 minutes to complete".
        r = plan_staging(SUMMIT, N_FILES, FILE_BYTES, 1024, strategy="naive")
        assert 10 * 60 < r.total_time_s < 20 * 60
        assert 20 < r.replication_factor < 27  # "23 nodes on average"

    def test_distributed_1024_under_3_minutes(self):
        r = plan_staging(SUMMIT, N_FILES, FILE_BYTES, 1024, strategy="distributed")
        assert r.total_time_s < 3 * 60

    def test_distributed_4500_under_7_minutes(self):
        r = plan_staging(SUMMIT, N_FILES, FILE_BYTES, 4500, strategy="distributed")
        assert r.total_time_s < 7 * 60

    def test_distributed_reads_each_file_once(self):
        r = plan_staging(SUMMIT, N_FILES, FILE_BYTES, 1024, strategy="distributed")
        assert r.replication_factor == 1.0
        assert r.fs_read_bytes == pytest.approx(N_FILES * FILE_BYTES)

    def test_naive_hammers_filesystem(self):
        naive = plan_staging(SUMMIT, N_FILES, FILE_BYTES, 1024, strategy="naive")
        dist = plan_staging(SUMMIT, N_FILES, FILE_BYTES, 1024, strategy="distributed")
        assert naive.fs_read_bytes > 20 * dist.fs_read_bytes
        assert naive.total_time_s > 4 * dist.total_time_s

    def test_redistribution_over_fabric_not_fs(self):
        r = plan_staging(SUMMIT, N_FILES, FILE_BYTES, 1024, strategy="distributed")
        assert r.redistribution_bytes > 0
        # Fabric moves the bulk far faster than the FS could.
        assert r.redistribution_time_s < r.fs_read_time_s * 10

    def test_single_thread_slower(self):
        node = SUMMIT.node
        single = scaled_read_bandwidth(1, node.fs_read_bw_single_thread)
        staged = scaled_read_bandwidth(READER_THREADS,
                                       node.fs_read_bw_single_thread,
                                       cap=node.fs_read_bw_multi_thread)
        assert single < staged

    def test_piz_daint_supported(self):
        r = plan_staging(PIZ_DAINT, N_FILES, FILE_BYTES, 2048,
                         strategy="distributed")
        assert r.total_time_s > 0

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            plan_staging(SUMMIT, N_FILES, FILE_BYTES, 8, strategy="teleport")

    def test_node_count_validated(self):
        with pytest.raises(ValueError):
            plan_staging(SUMMIT, N_FILES, FILE_BYTES, 10**6)


class TestDisjointPieces:
    def test_partition_properties(self):
        pieces = assign_disjoint_pieces(100, 7)
        merged = np.concatenate(pieces)
        assert len(merged) == 100
        assert len(np.unique(merged)) == 100
        sizes = [len(p) for p in pieces]
        assert max(sizes) - min(sizes) <= 1

    def test_single_rank(self):
        pieces = assign_disjoint_pieces(10, 1)
        np.testing.assert_array_equal(pieces[0], np.arange(10))

    def test_invalid_ranks(self):
        with pytest.raises(ValueError):
            assign_disjoint_pieces(10, 0)


class TestFunctionalStaging:
    def test_every_rank_gets_its_files(self):
        w = World(6)
        staged, stats = stage_distributed(w, num_files=120, files_per_rank=30,
                                          seed=3)
        assert stats["consistent"]
        for s in staged:
            assert len(s) == 30

    def test_accounting(self):
        w = World(4)
        _, stats = stage_distributed(w, num_files=50, files_per_rank=20, seed=0)
        assert stats["messages"] == 2 * stats["total_requests"]
        assert stats["distinct_files_requested"] <= 50

    @given(st.integers(2, 8), st.integers(5, 25), st.integers(0, 5))
    @settings(max_examples=20, deadline=None)
    def test_property_consistency(self, ranks, files_per_rank, seed):
        num_files = files_per_rank * 4
        w = World(ranks)
        staged, stats = stage_distributed(w, num_files, files_per_rank, seed)
        assert stats["consistent"]
