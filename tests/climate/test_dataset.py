"""Dataset assembly: splits, normalization, sharding, file store."""
import numpy as np
import pytest

from repro.climate import (
    ChannelNormalizer,
    ClimateDataset,
    DatasetSplits,
    Grid,
    PAPER_DATASET,
    SampleFileStore,
    SerializationGate,
)

GRID = Grid(32, 48)


@pytest.fixture(scope="module")
def dataset():
    return ClimateDataset.synthesize(GRID, num_samples=20, seed=1)


class TestSplits:
    def test_paper_fractions(self):
        s = DatasetSplits.make(1000, np.random.default_rng(0))
        assert len(s.train) == 800
        assert len(s.validation) == 100
        assert len(s.test) == 100

    def test_disjoint_and_complete(self):
        s = DatasetSplits.make(97, np.random.default_rng(1))
        all_idx = np.concatenate([s.train, s.validation, s.test])
        assert len(set(all_idx.tolist())) == 97


class TestNormalizer:
    def test_standardizes(self):
        rng = np.random.default_rng(0)
        imgs = rng.normal(loc=5.0, scale=2.0, size=(10, 3, 8, 8)).astype(np.float32)
        norm = ChannelNormalizer().fit(imgs)
        out = norm.transform(imgs)
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-4)
        np.testing.assert_allclose(out.std(axis=(0, 2, 3)), 1.0, atol=1e-3)

    def test_transform_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            ChannelNormalizer().transform(np.zeros((1, 3, 4, 4)))

    def test_constant_channel_no_blowup(self):
        imgs = np.zeros((4, 2, 3, 3), dtype=np.float32)
        norm = ChannelNormalizer().fit(imgs)
        assert np.isfinite(norm.transform(imgs)).all()


class TestClimateDataset:
    def test_shapes(self, dataset):
        assert dataset.images.shape == (20, 16, 32, 48)
        assert dataset.labels.shape == (20, 32, 48)
        assert dataset.channels == 16
        assert len(dataset) == 20

    def test_normalized(self, dataset):
        tr = dataset.images[dataset.splits.train]
        assert abs(tr.mean()) < 0.3
        assert 0.5 < tr.std() < 2.0

    def test_channel_subset(self):
        ds = ClimateDataset.synthesize(GRID, num_samples=4, seed=2, channels=4)
        assert ds.channels == 4

    def test_shard_disjoint_union(self, dataset):
        split = dataset.splits.train
        shards = [dataset.shard_indices(split, r, 4) for r in range(4)]
        merged = np.concatenate(shards)
        assert len(set(merged.tolist())) == len(split)

    def test_shard_rank_out_of_range(self, dataset):
        with pytest.raises(ValueError):
            dataset.shard_indices(dataset.splits.train, 5, 4)

    def test_batches_drop_last(self, dataset):
        batches = list(dataset.batches(dataset.splits.train, batch_size=3))
        for imgs, labs in batches:
            assert imgs.shape[0] == 3
            assert labs.shape == (3, 32, 48)

    def test_batches_shuffled_with_rng(self, dataset):
        b1 = [l for _, l in dataset.batches(dataset.splits.train, 2,
                                            np.random.default_rng(0))]
        b2 = [l for _, l in dataset.batches(dataset.splits.train, 2,
                                            np.random.default_rng(1))]
        assert not all(np.array_equal(a, b) for a, b in zip(b1, b2))

    def test_deterministic_synthesis(self):
        a = ClimateDataset.synthesize(GRID, num_samples=3, seed=5)
        b = ClimateDataset.synthesize(GRID, num_samples=3, seed=5)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)


class TestSampleFileStore:
    def test_write_read_roundtrip(self, tmp_path):
        store = SampleFileStore(tmp_path / "ds")
        img = np.random.default_rng(0).normal(size=(4, 8, 8)).astype(np.float32)
        lab = np.zeros((8, 8), dtype=np.int8)
        store.write_sample(0, img, lab)
        rimg, rlab = store.read_sample(0)
        np.testing.assert_array_equal(rimg, img)
        np.testing.assert_array_equal(rlab, lab)

    def test_manifest(self, tmp_path):
        store = SampleFileStore(tmp_path / "ds")
        store.write_sample(0, np.zeros((2, 8, 8), np.float32), np.zeros((8, 8), np.int8))
        store.write_manifest(Grid(8, 8), 1)
        m = store.read_manifest()
        assert m["count"] == 1
        assert m["sample_file_bytes"] > 0

    def test_shape_mismatch_raises(self, tmp_path):
        store = SampleFileStore(tmp_path / "ds")
        with pytest.raises(ValueError):
            store.write_sample(0, np.zeros((2, 8, 8)), np.zeros((4, 4)))

    def test_gate_counts_acquisitions(self, tmp_path):
        store = SampleFileStore(tmp_path / "ds")
        store.write_sample(0, np.zeros((2, 8, 8), np.float32), np.zeros((8, 8), np.int8))
        gate = SerializationGate()
        store.read_sample(0, gate=gate)
        store.read_sample(0, gate=gate)
        assert gate.stats["acquisitions"] == 2

    def test_file_paths_sorted(self, tmp_path):
        store = SampleFileStore(tmp_path / "ds")
        for i in (2, 0, 1):
            store.write_sample(i, np.zeros((1, 4, 4), np.float32), np.zeros((4, 4), np.int8))
        paths = store.file_paths()
        assert len(store) == 3
        assert [p.name for p in paths] == sorted(p.name for p in paths)


class TestPaperDatasetFacts:
    def test_sample_size_near_56mb(self):
        # 1152*768*16*4 bytes ~ 56.6 MB per sample.
        assert 55e6 < PAPER_DATASET.sample_bytes < 62e6

    def test_total_is_about_3_5_tb(self):
        # "the climate data used in this study is currently 3.5 TB"
        assert 3.3 < PAPER_DATASET.total_bytes / 1e12 < 3.9

    def test_naive_replication_factor_23x(self):
        # "each individual file ... read by 23 nodes on average" at 1024
        # nodes x 1500 files.
        r = PAPER_DATASET.replication_factor(1024, 1500)
        assert 20 < r < 27
