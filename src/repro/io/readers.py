"""Multi-threaded file-reader models and implementations.

Two facts from the paper drive this module (Sections V-A1/V-A2):

* running **eight reader threads instead of one** raised a rank's achieved
  GPFS read bandwidth from 1.79 GB/s to 11.98 GB/s (6.7x) — threads *do*
  help against file-system latency when each thread has its own file;
* inside the TensorFlow input pipeline, however, the HDF5 library
  **serializes all operations**, so parallel worker *threads* gained
  nothing, and the fix was parallel worker *processes*.

``scaled_read_bandwidth`` is the analytic model used by the staging
simulator; ``ThreadedReader`` is a real thread-pool reader whose
serialization behaviour is controlled by which gate(s) the threads share,
reproducing both regimes measurably.
"""
from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass

from ..climate.hdf5store import GATE, SampleFileStore, SerializationGate
from ..telemetry.clock import WallClock

__all__ = ["scaled_read_bandwidth", "ReadResult", "ThreadedReader"]


#: Per-thread read-efficiency decay; reproduces the paper's measured 6.7x
#: at 8 threads.
EFFICIENCY_DECAY = 0.0277


def scaled_read_bandwidth(
    threads: int,
    single_thread_bw: float,
    cap: float | None = None,
) -> float:
    """Per-node read bandwidth as a function of reader thread count.

    Near-linear scaling with a mild per-thread efficiency decay
    (``EFFICIENCY_DECAY``).  ``cap`` bounds the result by e.g. the NIC or
    storage limit.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    eff = 1.0 / (1.0 + EFFICIENCY_DECAY * (threads - 1))
    bw = single_thread_bw * threads * eff
    if cap is not None:
        bw = min(bw, cap)
    return bw


@dataclass
class ReadResult:
    """Outcome of a threaded read batch."""

    samples: int
    wall_time_s: float
    gate_wait_s: float
    faults_retried: int = 0

    @property
    def samples_per_second(self) -> float:
        return self.samples / self.wall_time_s if self.wall_time_s > 0 else float("inf")


class ThreadedReader:
    """Reads samples from a :class:`SampleFileStore` with a thread pool.

    ``shared_gate=True`` routes every thread through the process-wide
    serialization gate (the HDF5-library regime: threads serialize).
    ``shared_gate=False`` gives each worker its own gate, modelling the
    paper's multiprocessing fix (each process has its own HDF5 library).

    ``fault_injector`` (:class:`repro.resilience.FaultInjector`) makes the
    read path lossy on purpose; injected read faults are retried under the
    default :class:`repro.resilience.RetryPolicy` and counted in the
    returned :class:`ReadResult`, so a slow or corrupted reader degrades a
    batch instead of killing it.
    """

    def __init__(self, store: SampleFileStore, num_workers: int = 4,
                 shared_gate: bool = True, fault_injector=None):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.store = store
        self.num_workers = num_workers
        self.shared_gate = shared_gate
        self.fault_injector = fault_injector
        # Batch wall time is a genuine thread-pool elapsed-time measurement,
        # so the clock is an explicit WallClock — simulated time does not
        # advance while worker threads block on real file I/O.
        self.clock = WallClock()
        if shared_gate:
            self._gates = [GATE] * num_workers
        else:
            self._gates = [SerializationGate() for _ in range(num_workers)]

    def read_indices(self, indices: list[int]):
        """Read samples concurrently; returns (list of samples, ReadResult)."""
        from ..resilience.retry import RetryPolicy, RetryState, with_retries

        unique_gates = {id(g): g for g in self._gates}.values()
        for g in unique_gates:
            g.reset()
        t0 = self.clock.now()
        results = [None] * len(indices)
        policy = RetryPolicy()
        retry_state = RetryState()

        def read_one(index: int, worker: int):
            if self.fault_injector is not None:
                self.fault_injector.check_read(f"sample-{index}")
            return self.store.read_sample(index, gate=self._gates[worker])

        def work(slot: int, index: int, worker: int):
            if self.fault_injector is None:
                results[slot] = read_one(index, worker)
            else:
                results[slot] = with_retries(
                    lambda: read_one(index, worker), policy,
                    retry_on=(OSError,), label=f"read:sample-{index}",
                    state=retry_state)

        with concurrent.futures.ThreadPoolExecutor(max_workers=self.num_workers) as pool:
            futures = [
                pool.submit(work, slot, index, slot % self.num_workers)
                for slot, index in enumerate(indices)
            ]
            for f in futures:
                f.result()
        wall = self.clock.now() - t0
        wait = sum(g.stats["wait_time_s"] for g in unique_gates)
        return results, ReadResult(samples=len(indices), wall_time_s=wall,
                                   gate_wait_s=wait,
                                   faults_retried=retry_state.retries)
