"""Cross-layer integration: instrumented trainer/io/comm hot paths."""
import numpy as np
import pytest

from repro.climate import ClimateDataset, Grid, class_frequencies
from repro.comm import EngineConfig
from repro.core import DistributedTrainer, TrainConfig, Trainer
from repro.core.networks import Tiramisu, TiramisuConfig
from repro.io.pipeline import PrefetchPipeline
from repro.telemetry import Telemetry, activate

GRID = Grid(16, 24)


@pytest.fixture(scope="module")
def dataset():
    return ClimateDataset.synthesize(GRID, num_samples=6, seed=1, channels=4)


def tiny_model(seed=7):
    return Tiramisu(TiramisuConfig(in_channels=4, base_filters=8, growth=4,
                                   down_layers=(2,), bottleneck_layers=1,
                                   kernel=3, dropout=0.0),
                    rng=np.random.default_rng(seed))


class TestTrainerInstrumentation:
    def test_step_spans_and_metrics(self, dataset):
        tel = Telemetry()
        trainer = Trainer(tiny_model(), TrainConfig(lr=0.05, optimizer="sgd"),
                          class_frequencies(dataset.labels))
        with activate(tel):
            trainer.train_step(dataset.images[:1], dataset.labels[:1])
        names = [s.name for s in tel.tracer.spans()]
        assert "train_step" in names
        assert "forward" in names and "backward" in names
        assert "optimizer_step" in names
        assert tel.metrics.counter("trainer.steps").value == 1
        assert tel.metrics.histogram("trainer.step_time_s").count == 1

    def test_forward_backward_nested_under_step(self, dataset):
        tel = Telemetry()
        trainer = Trainer(tiny_model(), TrainConfig(lr=0.05, optimizer="sgd"),
                          class_frequencies(dataset.labels))
        with activate(tel):
            trainer.train_step(dataset.images[:1], dataset.labels[:1])
        spans = {s.name: s for s in tel.tracer.spans()}
        step_id = spans["train_step"].span_id
        assert spans["forward"].parent_id == step_id
        assert spans["backward"].parent_id == step_id

    def test_disabled_telemetry_records_nothing(self, dataset):
        trainer = Trainer(tiny_model(), TrainConfig(lr=0.05, optimizer="sgd"),
                          class_frequencies(dataset.labels))
        r = trainer.train_step(dataset.images[:1], dataset.labels[:1])
        assert np.isfinite(r.loss)   # default session is disabled; no error

    def test_activate_scopes_the_session(self, dataset):
        tel = Telemetry()
        trainer = Trainer(tiny_model(), TrainConfig(lr=0.05, optimizer="sgd"),
                          class_frequencies(dataset.labels))
        with activate(tel):
            trainer.train_step(dataset.images[:1], dataset.labels[:1])
        trainer.train_step(dataset.images[1:2], dataset.labels[1:2])
        # Only the step inside the activate() scope was recorded.
        assert tel.metrics.counter("trainer.steps").value == 1


class TestDistributedInstrumentation:
    def test_exchange_spans_and_comm_metrics(self, dataset):
        tel = Telemetry()
        with activate(tel):
            dt = DistributedTrainer(
                tiny_model, 2, TrainConfig(lr=0.05, optimizer="sgd"),
                class_frequencies(dataset.labels),
                engine=EngineConfig(strategies=("ring",), autotune=False,
                                    bucket_bytes=1 << 20))
            batches = [(dataset.images[:1], dataset.labels[:1]),
                       (dataset.images[1:2], dataset.labels[1:2])]
            dt.train_step(batches)
        cats = {s.category for s in tel.tracer.spans()}
        assert "trainer" in cats and "comm" in cats
        names = {s.name for s in tel.tracer.spans()}
        assert {"gradient_exchange", "engine.exchange", "engine.bucket",
                "allreduce.ring"} <= names
        counters = tel.metrics.snapshot()["counters"]
        assert counters["comm.engine.exchanges"] == 1
        assert counters["comm.engine.messages"] > 0
        assert counters["comm.engine.bytes_on_wire"] > 0
        assert counters["comm.engine.collectives"] >= 1


class TestPipelineInstrumentation:
    def test_read_latency_and_queue_depth(self):
        tel = Telemetry()
        pipe = PrefetchPipeline(lambda i: i * 2, range(10), num_workers=2,
                                prefetch_depth=4, telemetry=tel)
        assert list(pipe) == [i * 2 for i in range(10)]
        assert tel.metrics.histogram("io.read_latency_s").count == 10
        assert tel.metrics.counter("io.samples_read").value == 10
        g = tel.metrics.gauge("io.queue_depth")
        assert g.updates > 0 and g.max <= 4
        read_spans = [s for s in tel.tracer.spans() if s.name == "read_sample"]
        assert len(read_spans) == 10
        assert all(s.category == "io" for s in read_spans)

