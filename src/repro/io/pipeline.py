"""Optimized input pipeline: prefetch queue + parallel worker model.

Section V-A2 of the paper: input processing placed in the training graph
serializes with compute, so TensorFlow's ``prefetch`` decouples them with a
queue; HDF5 forces worker *processes* instead of threads; "with 4 background
processes ... the input pipeline can more closely match the training
throughput of both networks, even when using FP16 precision".

Two tools here:

* :class:`PipelineSimulator` — a discrete-event simulation of W workers
  producing into a depth-Q prefetch queue consumed once per training step;
  reports achieved step time and GPU idle fraction, including the
  no-prefetch (serialized) regime.
* :class:`PrefetchPipeline` — a real thread-backed pipeline over a sample
  store, used by the examples; its workers can share the HDF5-style
  serialization gate (thread regime) or own private gates (the
  multiprocessing fix), making the paper's observation reproducible on a
  laptop.
"""
from __future__ import annotations

import queue
import threading
from dataclasses import dataclass

from ..hpc.events import EventQueue
from ..telemetry import get_active

__all__ = ["PipelineStats", "PipelineSimulator", "PrefetchPipeline", "pipeline_throughput"]


def pipeline_throughput(step_time_s: float, prep_time_s: float,
                        workers: int) -> float:
    """Steady-state samples/s of the consumer (analytic bound) with
    ``workers`` independent producers."""
    if step_time_s <= 0 or prep_time_s <= 0 or workers < 1:
        raise ValueError("times must be positive and workers >= 1")
    produce_rate = workers / prep_time_s
    consume_rate = 1.0 / step_time_s
    return min(produce_rate, consume_rate)


@dataclass
class PipelineStats:
    """Result of a pipeline simulation."""

    steps: int
    total_time_s: float
    gpu_busy_time_s: float

    @property
    def achieved_step_time_s(self) -> float:
        return self.total_time_s / self.steps

    @property
    def gpu_idle_fraction(self) -> float:
        return max(0.0, 1.0 - self.gpu_busy_time_s / self.total_time_s)

    @property
    def samples_per_second(self) -> float:
        return self.steps / self.total_time_s


class PipelineSimulator:
    """Discrete-event model of prefetching input against a training loop.

    Parameters
    ----------
    step_time_s:
        GPU compute time per training step (one sample per step here;
        scale externally for batches).
    prep_time_s:
        Time for one worker to read+decode one sample.
    workers:
        Concurrent producer workers (processes in the paper's final design).
    prefetch_depth:
        Queue capacity; 0 disables prefetching entirely — input runs
        *inside* the step, serialized with compute (the default TF graph
        placement the paper started from).
    serialized_workers:
        Model the HDF5 global lock: workers exist but production is
        serialized through one lock.
    """

    def __init__(self, step_time_s: float, prep_time_s: float, workers: int = 4,
                 prefetch_depth: int = 8, serialized_workers: bool = False):
        if step_time_s <= 0 or prep_time_s <= 0:
            raise ValueError("times must be positive")
        if workers < 1 or prefetch_depth < 0:
            raise ValueError("workers >= 1 and prefetch_depth >= 0 required")
        self.step_time = float(step_time_s)
        self.prep_time = float(prep_time_s)
        self.workers = int(workers)
        self.depth = int(prefetch_depth)
        self.serialized = bool(serialized_workers)

    def run(self, steps: int) -> PipelineStats:
        if steps < 1:
            raise ValueError("steps must be >= 1")
        if self.depth == 0:
            # Serialized: every step pays prep + compute.
            total = steps * (self.prep_time + self.step_time)
            return PipelineStats(steps, total, steps * self.step_time)

        ev = EventQueue()
        state = {
            "queued": 0,             # ready samples in the prefetch queue
            "in_flight": 0,          # workers currently producing
            "produced": 0,           # total samples finished by workers
            "consumed": 0,
            "gpu_busy_until": 0.0,
            "gpu_waiting": False,
            "done_time": 0.0,
        }
        effective_workers = 1 if self.serialized else self.workers
        target = steps

        def maybe_start_workers():
            while (
                state["in_flight"] < effective_workers
                and state["produced"] + state["in_flight"] < target
                and state["queued"] + state["in_flight"] < self.depth
            ):
                state["in_flight"] += 1
                ev.schedule(self.prep_time, produce)

        def produce():
            state["in_flight"] -= 1
            state["produced"] += 1
            state["queued"] += 1
            if state["gpu_waiting"]:
                state["gpu_waiting"] = False
                start_step()
            maybe_start_workers()

        def start_step():
            state["queued"] -= 1
            ev.schedule(self.step_time, finish_step)
            maybe_start_workers()

        def finish_step():
            state["consumed"] += 1
            state["gpu_busy_until"] = ev.now
            if state["consumed"] >= target:
                state["done_time"] = ev.now
                return
            if state["queued"] > 0:
                start_step()
            else:
                state["gpu_waiting"] = True

        maybe_start_workers()
        if state["queued"] > 0:
            start_step()
        else:
            state["gpu_waiting"] = True
        ev.run()
        total = state["done_time"]
        return PipelineStats(steps, total, steps * self.step_time)


class PrefetchPipeline:
    """A real (threaded) prefetching loader over an arbitrary reader callable.

    ``reader(index)`` returns one sample.  Iterate the pipeline to consume
    samples in submission order.  This is the examples' loader; tests use it
    with :class:`repro.climate.SampleFileStore` readers whose serialization
    gates reproduce the HDF5-vs-multiprocessing behaviour.
    """

    _SENTINEL = object()

    def __init__(self, reader, indices, num_workers: int = 4, prefetch_depth: int = 8,
                 telemetry=None):
        if num_workers < 1 or prefetch_depth < 1:
            raise ValueError("num_workers and prefetch_depth must be >= 1")
        self.reader = reader
        self.indices = list(indices)
        self.num_workers = num_workers
        self.telemetry = telemetry
        self.queue: queue.Queue = queue.Queue(maxsize=prefetch_depth)
        self._results: dict[int, object] = {}
        self._next_emit = 0
        self._lock = threading.Lock()
        self._task_iter = iter(enumerate(self.indices))
        self._threads: list[threading.Thread] = []

    def _worker(self):
        tel = self.telemetry or get_active()
        tracer = tel.tracer
        while True:
            with self._lock:
                try:
                    slot, index = next(self._task_iter)
                except StopIteration:
                    return
            with tracer.span("read_sample", category="io",
                             index=int(index)) as sp:
                sample = self.reader(index)
            if tel.enabled:
                tel.metrics.histogram("io.read_latency_s").observe(sp.duration_s)
                tel.metrics.counter("io.samples_read").inc()
            self.queue.put((slot, sample))
            if tel.enabled:
                tel.metrics.gauge("io.queue_depth").set(self.queue.qsize())

    def __iter__(self):
        tel = self.telemetry or get_active()
        for _ in range(self.num_workers):
            t = threading.Thread(target=self._worker, daemon=True)
            t.start()
            self._threads.append(t)
        emitted = 0
        pending: dict[int, object] = {}
        next_slot = 0
        while emitted < len(self.indices):
            if next_slot in pending:
                sample = pending.pop(next_slot)
            else:
                with tel.tracer.span("dequeue_sample", category="io") as sp:
                    slot, sample_in = self.queue.get()
                if tel.enabled:
                    tel.metrics.histogram("io.dequeue_wait_s").observe(sp.duration_s)
                    tel.metrics.gauge("io.queue_depth").set(self.queue.qsize())
                if slot != next_slot:
                    pending[slot] = sample_in
                    continue
                sample = sample_in
            yield sample
            emitted += 1
            next_slot += 1
        for t in self._threads:
            t.join()
