"""Dynamic micro-batching: coalesce concurrent requests into model batches.

Per-request inference wastes the accelerator: each tiny forward pays the
full per-call overhead (framework dispatch, im2col setup, BLAS launch)
for one window of data.  The micro-batcher holds arriving requests just
long enough to form a batch, trading a bounded queueing delay for a
multiplicative throughput win (the ``bench_serving`` benchmark pins the
>= 3x figure at batch size 8).

The policy is the classic two-knob one (as in ORBIT-2-style serving
stacks): flush when ``max_batch_size`` requests are waiting, or when the
oldest waiting request has aged ``max_wait_s`` — whichever comes first.
All timing reads the server's clock (a
:class:`repro.telemetry.SimulatedClock` in tests), so batch-formation
behaviour is deterministic and wall-clock-free under test.
"""
from __future__ import annotations

from dataclasses import dataclass

from ..telemetry import get_active
from .queue import RequestQueue
from .request import InferenceRequest

__all__ = ["BatchPolicy", "MicroBatcher"]


@dataclass(frozen=True)
class BatchPolicy:
    """The two knobs: size trigger and age trigger."""

    max_batch_size: int = 8
    max_wait_s: float = 0.002

    def __post_init__(self):
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.max_wait_s < 0:
            raise ValueError("max_wait_s must be >= 0")


class MicroBatcher:
    """Decides when the queue's head becomes a dispatchable batch."""

    def __init__(self, policy: BatchPolicy, queue: RequestQueue):
        self.policy = policy
        self.queue = queue
        self.batches_formed = 0

    def ready(self, now: float) -> bool:
        """True when a batch should be dispatched at time ``now``."""
        depth = self.queue.depth()
        if depth == 0:
            return False
        if depth >= self.policy.max_batch_size:
            return True
        # Compare against the very expression the event loop advances the
        # clock to: ``(t + wait) - t`` can round below ``wait``, so testing
        # the age instead would never fire at the deadline itself.
        deadline = self.next_deadline()
        return deadline is not None and now >= deadline

    def next_deadline(self) -> float | None:
        """Absolute time the age trigger fires (None when queue is empty)."""
        oldest = self.queue.oldest_enqueue_s()
        if oldest is None:
            return None
        return oldest + self.policy.max_wait_s

    def take(self, now: float) -> list[InferenceRequest]:
        """Pop the next batch (priority order); records batch-size metrics."""
        batch = self.queue.pop(self.policy.max_batch_size)
        if batch:
            self.batches_formed += 1
            tel = get_active()
            if tel.enabled:
                tel.metrics.counter("serve.batches").inc()
                tel.metrics.histogram("serve.batch_size").observe(len(batch))
                for req in batch:
                    tel.metrics.histogram(
                        "serve.queue_wait_s", lane=req.lane).observe(
                            now - (req.enqueued_s or now))
        return batch
