"""Low-overhead span tracer with thread-local nesting.

The tracer records *spans* — named, timed intervals with parent/child
structure — the way the Horovod timeline recorded the paper's negotiation
bottleneck, but across every layer of this codebase (trainer, input
pipeline, gradient exchange, simulators).  Design constraints:

* **Disabled means free.**  ``Tracer.span`` on a disabled tracer returns a
  shared no-op context manager; instrumented hot loops pay one branch and
  one ``with`` statement, nothing else.  This is the guard the acceptance
  criteria require for the training step loop.
* **Thread-local stacks.**  Parent/child links come from a per-thread span
  stack, so the prefetch pipeline's worker threads each get a coherent
  lane without locking on the hot path (only the append of a finished span
  takes the lock).
* **Pluggable clock.**  A :class:`~repro.telemetry.clock.SimulatedClock`
  lets the event simulators emit spans in virtual time
  (:func:`Tracer.emit` records pre-timed spans directly).
"""
from __future__ import annotations

import threading
from dataclasses import dataclass, field

from .clock import WallClock

__all__ = ["Span", "Tracer", "NULL_SPAN"]


@dataclass
class Span:
    """One finished, timed interval."""

    name: str
    category: str              # component: "trainer" | "io" | "comm" | "sim" | ...
    start_us: float
    duration_us: float
    span_id: int
    parent_id: int | None
    lane: int                  # display row (thread index, or rank for sims)
    kind: str = "span"         # "span" | "instant"
    args: dict = field(default_factory=dict)

    @property
    def end_us(self) -> float:
        return self.start_us + self.duration_us


class _NullSpan:
    """Shared no-op context manager returned by disabled tracers."""

    __slots__ = ()
    duration_s = 0.0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


NULL_SPAN = _NullSpan()


class _SpanContext:
    """Context manager that opens a span on enter and records it on exit."""

    __slots__ = ("_tracer", "_name", "_category", "_args", "_start",
                 "_span_id", "_parent_id", "duration_s")

    def __init__(self, tracer: "Tracer", name: str, category: str, args: dict):
        self._tracer = tracer
        self._name = name
        self._category = category
        self._args = args
        self.duration_s = 0.0

    def __enter__(self):
        tr = self._tracer
        stack = tr._stack()
        self._parent_id = stack[-1] if stack else None
        self._span_id = tr._next_id()
        stack.append(self._span_id)
        self._start = tr.clock.now()
        return self

    def __exit__(self, *exc):
        tr = self._tracer
        end = tr.clock.now()
        tr._stack().pop()
        self.duration_s = end - self._start
        tr._record(Span(
            name=self._name, category=self._category,
            start_us=(self._start - tr.epoch) * 1e6,
            duration_us=self.duration_s * 1e6,
            span_id=self._span_id, parent_id=self._parent_id,
            lane=tr._lane(), args=self._args,
        ))
        return False


class Tracer:
    """Collects spans from any number of threads into one timeline.

    Parameters
    ----------
    clock:
        Timestamp source; defaults to wall time.  Pass a
        :class:`~repro.telemetry.clock.SimulatedClock` for virtual-time
        tracing.
    enabled:
        When False, :meth:`span` returns :data:`NULL_SPAN` and nothing is
        recorded.
    """

    def __init__(self, clock=None, enabled: bool = True):
        self.clock = clock or WallClock()
        self.enabled = bool(enabled)
        self.epoch = self.clock.now()       # trace origin (ts 0)
        self._spans: list[Span] = []
        self._lock = threading.Lock()
        self._id = 0
        self._lanes: dict[int, int] = {}    # thread ident -> lane index
        self._local = threading.local()

    # -- internals ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _next_id(self) -> int:
        with self._lock:
            self._id += 1
            return self._id

    def _lane(self) -> int:
        ident = threading.get_ident()
        lane = self._lanes.get(ident)
        if lane is None:
            with self._lock:
                lane = self._lanes.setdefault(ident, len(self._lanes))
        return lane

    def _record(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    # -- public API --------------------------------------------------------

    def span(self, name: str, category: str = "app", **args):
        """Context manager timing a nested span; no-op when disabled."""
        if not self.enabled:
            return NULL_SPAN
        return _SpanContext(self, name, category, args)

    def instant(self, name: str, category: str = "app", **args) -> None:
        """Record a zero-duration marker (e.g. a loss-scale overflow)."""
        if not self.enabled:
            return
        stack = self._stack()
        self._record(Span(
            name=name, category=category,
            start_us=(self.clock.now() - self.epoch) * 1e6, duration_us=0.0,
            span_id=self._next_id(),
            parent_id=stack[-1] if stack else None,
            lane=self._lane(), kind="instant", args=args,
        ))

    def emit(self, name: str, start_s: float, duration_s: float,
             category: str = "app", lane: int = 0,
             parent_id: int | None = None, **args) -> int:
        """Record a pre-timed span (simulators emitting virtual intervals).

        ``start_s`` is absolute time on this tracer's clock timeline (for a
        simulated clock, simulation seconds).  Returns the span id so
        callers can parent further emitted spans under it.
        """
        if not self.enabled:
            return 0
        span_id = self._next_id()
        self._record(Span(
            name=name, category=category,
            start_us=(start_s - self.epoch) * 1e6,
            duration_us=duration_s * 1e6,
            span_id=span_id, parent_id=parent_id, lane=lane, args=args,
        ))
        return span_id

    def current_span_id(self) -> int | None:
        """Span id of the innermost open span on this thread (or None).

        Lets out-of-band recorders (the simmpi wire's message events) parent
        their records under whatever span the caller has open, giving the
        cross-rank trace causal anchors without threading ids around.
        """
        stack = self._stack()
        return stack[-1] if stack else None

    def spans(self) -> list[Span]:
        """Snapshot of all finished spans, in completion order."""
        with self._lock:
            return list(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

