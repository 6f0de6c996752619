"""Input pipeline and reader models (Sections V-A1/V-A2)."""
import numpy as np
import pytest

from repro.climate import Grid, SampleFileStore
from repro.io import (
    PipelineSimulator,
    PrefetchPipeline,
    ThreadedReader,
    pipeline_throughput,
    scaled_read_bandwidth,
)


class TestScaledReadBandwidth:
    def test_paper_67x_at_8_threads(self):
        one = scaled_read_bandwidth(1, 1.79e9)
        eight = scaled_read_bandwidth(8, 1.79e9)
        assert one == 1.79e9
        assert eight / one == pytest.approx(6.7, rel=0.01)

    def test_cap_applies(self):
        assert scaled_read_bandwidth(64, 1.79e9, cap=12e9) == 12e9

    def test_monotone_in_threads(self):
        bws = [scaled_read_bandwidth(t, 1e9) for t in range(1, 16)]
        assert all(b2 > b1 for b1, b2 in zip(bws, bws[1:]))

    def test_invalid_threads(self):
        with pytest.raises(ValueError):
            scaled_read_bandwidth(0, 1e9)


class TestPipelineThroughput:
    def test_gpu_bound(self):
        # Fast producers: consumer rate wins.
        assert pipeline_throughput(0.5, 0.1, 4) == pytest.approx(2.0)

    def test_io_bound(self):
        assert pipeline_throughput(0.1, 1.0, 2) == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            pipeline_throughput(0.0, 1.0, 1)


class TestPipelineSimulator:
    def test_prefetch_hides_input_time(self):
        # 4 workers x 1.2s prep feed a 0.5s step: input is fully hidden.
        stats = PipelineSimulator(0.5, 1.2, workers=4, prefetch_depth=8).run(60)
        assert stats.achieved_step_time_s == pytest.approx(0.5, rel=0.15)
        assert stats.gpu_idle_fraction < 0.15

    def test_no_prefetch_serializes(self):
        # The paper's starting point: input ops in the training graph.
        stats = PipelineSimulator(0.5, 1.2, workers=4, prefetch_depth=0).run(20)
        assert stats.achieved_step_time_s == pytest.approx(1.7)

    def test_serialized_workers_bottleneck(self):
        # HDF5 lock: 4 "workers" produce at the single-worker rate.
        stats = PipelineSimulator(0.5, 1.2, workers=4, prefetch_depth=8,
                                  serialized_workers=True).run(40)
        assert stats.achieved_step_time_s >= 1.1

    def test_underprovisioned_workers(self):
        # 2 workers x 1.2s = 0.6s/sample > 0.5s step: input-bound.
        stats = PipelineSimulator(0.5, 1.2, workers=2, prefetch_depth=8).run(60)
        assert stats.achieved_step_time_s == pytest.approx(0.6, rel=0.1)

    def test_paper_fix_four_processes_match_training(self):
        # "With 4 background processes ... the input pipeline can more
        # closely match the training throughput".
        serial = PipelineSimulator(0.5, 1.2, 4, 8, serialized_workers=True).run(40)
        procs = PipelineSimulator(0.5, 1.2, 4, 8, serialized_workers=False).run(40)
        assert procs.samples_per_second > 1.8 * serial.samples_per_second

    def test_validation(self):
        with pytest.raises(ValueError):
            PipelineSimulator(0.0, 1.0)
        with pytest.raises(ValueError):
            PipelineSimulator(1.0, 1.0, workers=0)
        with pytest.raises(ValueError):
            PipelineSimulator(1.0, 1.0).run(0)


@pytest.fixture()
def store(tmp_path):
    s = SampleFileStore(tmp_path / "ds")
    for i in range(12):
        img = np.full((2, 8, 8), float(i), dtype=np.float32)
        s.write_sample(i, img, np.zeros((8, 8), dtype=np.int8))
    return s


class TestThreadedReader:
    def test_reads_everything(self, store):
        reader = ThreadedReader(store, num_workers=3, shared_gate=False)
        samples, result = reader.read_indices(list(range(12)))
        assert result.samples == 12
        assert all(s is not None for s in samples)

    def test_shared_gate_serializes(self, store):
        # A deliberately slow read holds the gate, so the HDF5-style shared
        # gate forces serialization while private gates allow overlap.
        import time

        class SlowStore:
            def read_sample(self, index, gate):
                with gate:
                    time.sleep(0.01)
                return index

        hold = 0.01
        n = 8
        shared = ThreadedReader(SlowStore(), num_workers=4, shared_gate=True)
        _, r_shared = shared.read_indices(list(range(n)))
        private = ThreadedReader(SlowStore(), num_workers=4, shared_gate=False)
        _, r_private = private.read_indices(list(range(n)))
        # Shared: n reads serialize -> ~n * hold.  Private: 4-way overlap.
        assert r_shared.wall_time_s >= n * hold * 0.9
        assert r_private.wall_time_s < r_shared.wall_time_s
        assert r_shared.gate_wait_s > r_private.gate_wait_s

    def test_invalid_workers(self, store):
        with pytest.raises(ValueError):
            ThreadedReader(store, num_workers=0)


class TestPrefetchPipeline:
    def test_yields_in_order(self, store):
        pipe = PrefetchPipeline(lambda i: store.read_sample(i)[0][0, 0, 0],
                                indices=list(range(12)), num_workers=3,
                                prefetch_depth=4)
        out = list(pipe)
        assert out == [float(i) for i in range(12)]

    def test_single_worker(self, store):
        pipe = PrefetchPipeline(lambda i: i * 2, indices=[0, 1, 2],
                                num_workers=1, prefetch_depth=2)
        assert list(pipe) == [0, 2, 4]

    def test_validation(self):
        with pytest.raises(ValueError):
            PrefetchPipeline(lambda i: i, [0], num_workers=0)
