"""Retry-with-backoff: the hardening wrapper for staging and read paths.

The paper's staging phase reads hundreds of terabytes through a shared
parallel file system; transient read failures are expected and must not
kill a 27360-GPU step.  :func:`with_retries` retries a callable under a
:class:`RetryPolicy` (exponential backoff with seeded jitter), records
every retry as a telemetry counter and span, and re-raises once the
budget is exhausted.

Backoff sleeping is pluggable so simulations stay fast and deterministic:
the default ``sleep`` is a no-op that merely *accounts* the time it would
have slept (``RetryState.backoff_total_s``); pass ``time.sleep`` for real
wall-clock behaviour.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ReproError
from ..telemetry import get_active

__all__ = ["RetryPolicy", "RetryState", "RetriesExhausted", "with_retries"]

BACKOFF_FACTOR = 2.0        # each retry waits twice as long as the last


class RetriesExhausted(ReproError):
    """All attempts failed; ``last`` is the final underlying exception."""

    def __init__(self, attempts: int, last: BaseException):
        super().__init__(f"gave up after {attempts} attempts: {last!r}")
        self.attempts = attempts
        self.last = last


@dataclass(frozen=True)
class RetryPolicy:
    """How hard to try: attempts, backoff curve, jitter."""

    max_attempts: int = 3
    backoff_base_s: float = 0.05
    max_backoff_s: float = 2.0
    jitter: float = 0.1          # +/- fraction of the delay, seeded
    seed: int = 0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base_s < 0 or self.max_backoff_s < 0:
            raise ValueError("backoff times must be >= 0")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")

    def delays(self) -> list[float]:
        """The full backoff schedule (between-attempt delays)."""
        rng = np.random.default_rng(self.seed)
        out = []
        for attempt in range(self.max_attempts - 1):
            delay = min(self.backoff_base_s * BACKOFF_FACTOR ** attempt,
                        self.max_backoff_s)
            if self.jitter:
                delay *= 1.0 + self.jitter * float(rng.uniform(-1.0, 1.0))
            out.append(delay)
        return out


@dataclass
class RetryState:
    """Accounting for one ``with_retries`` call."""

    attempts: int = 0
    retries: int = 0
    backoff_total_s: float = 0.0
    errors: list = field(default_factory=list)


def with_retries(fn, policy: RetryPolicy | None = None,
                 retry_on: tuple = (ReproError, OSError),
                 sleep=None, label: str = "retry",
                 state: RetryState | None = None):
    """Call ``fn()`` under ``policy``; returns its result.

    Exceptions matching ``retry_on`` trigger backoff and another attempt;
    anything else propagates immediately.  When every attempt fails the
    last error is re-raised wrapped in :class:`RetriesExhausted` (with the
    original as ``__cause__``).  ``state`` (optional) accumulates attempt
    counts across calls — the resilience runner uses one shared state to
    report a whole run's retry totals.
    """
    policy = policy or RetryPolicy()
    state = state if state is not None else RetryState()
    delays = None           # drawn at the first retry: most calls succeed
    tel = get_active()
    last: BaseException | None = None
    for attempt in range(policy.max_attempts):
        state.attempts += 1
        try:
            return fn()
        except retry_on as exc:
            last = exc
            state.errors.append(exc)
            if attempt == policy.max_attempts - 1:
                break
            if delays is None:
                delays = policy.delays()
            delay = delays[attempt]
            state.retries += 1
            state.backoff_total_s += delay
            if tel.enabled:
                tel.metrics.counter("resilience.retries").inc()
                tel.tracer.instant("retry", category="resilience",
                                   label=label, attempt=attempt + 1,
                                   backoff_s=delay, error=type(exc).__name__)
            if sleep is not None:
                sleep(delay)
    raise RetriesExhausted(policy.max_attempts, last) from last
