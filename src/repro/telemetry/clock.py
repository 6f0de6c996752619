"""Clocks for the span tracer: wall time and simulated (virtual) time.

Every tracer reads timestamps through a clock object so the same span API
works for real code (``WallClock`` over ``time.perf_counter``) and for the
discrete-event simulators (``SimulatedClock``, advanced explicitly by the
simulation loop).  Timestamps are seconds as floats; exporters convert to
the microseconds Chrome tracing expects.
"""
from __future__ import annotations

import time

__all__ = ["WallClock", "SimulatedClock"]


class WallClock:
    """Monotonic wall time (``time.perf_counter``)."""

    def now(self) -> float:
        return time.perf_counter()


class SimulatedClock:
    """Virtual time driven by a simulation loop.

    The virtual-time drills (``repro health``, ``fleet``, ``campaign``)
    advance this clock to their event times, so spans opened under it carry
    *simulated* timestamps and land in the same Chrome trace as wall-clock
    spans, on their own virtual timeline.
    """

    def __init__(self):
        self._time = 0.0

    def now(self) -> float:
        return self._time

    def advance(self, dt: float) -> float:
        """Move forward by ``dt`` seconds (must be non-negative)."""
        if dt < 0:
            raise ValueError("simulated time cannot move backwards")
        self._time += dt
        return self._time

    def advance_to(self, t: float) -> float:
        """Jump to absolute time ``t`` if it is ahead of now."""
        self._time = max(self._time, float(t))
        return self._time
