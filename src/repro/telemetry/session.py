"""The telemetry session: one tracer + one metrics registry, activatable.

Instrumented code throughout the repo resolves its telemetry at call time:

* an explicit ``telemetry=`` argument wins (tests, embedded use);
* otherwise the module-level *active* session
  (:func:`get_active`), installed with :func:`activate`;
* the default active session is a shared **disabled** singleton, so
  un-configured code paths pay only a null-context-manager per span.

This is what lets the trainer, input pipeline, all-reduce, and simulators
write into one coherent timeline without threading a handle through every
signature.
"""
from __future__ import annotations

import weakref
from contextlib import contextmanager

from .metrics import MetricsRegistry
from .tracer import Tracer

__all__ = ["Telemetry", "get_active", "activate", "set_active", "DISABLED"]


class Telemetry:
    """A tracing + metrics session.

    Parameters
    ----------
    enabled:
        False produces a session whose tracer and registry are both no-ops.
    clock:
        Passed to the tracer; use a
        :class:`~repro.telemetry.clock.SimulatedClock` for virtual time.
    """

    def __init__(self, enabled: bool = True, clock=None):
        self.enabled = bool(enabled)
        self.clock = self.tracer = None  # set below (clock via tracer)
        self.tracer = Tracer(clock=clock, enabled=enabled)
        self.clock = self.tracer.clock
        self.metrics = MetricsRegistry(enabled=enabled)
        # Optional streaming/health layers; None until attached, so
        # instrumented code guards with ``tel.streams is not None``.
        self.streams = None
        self.health = None

    def span(self, name: str, category: str = "app", **args):
        return self.tracer.span(name, category=category, **args)

    def attach_streams(self, window_s: float = 1.0):
        """Attach a :class:`~repro.telemetry.streaming.StreamingAggregator`
        on this session's clock; returns it (idempotent)."""
        if self.streams is None:
            from .streaming import StreamingAggregator

            self.streams = StreamingAggregator(clock=self.clock,
                                               window_s=window_s)
        return self.streams

    def attach_health(self, rules=None, window_s: float = 1.0):
        """Attach a :class:`~repro.telemetry.health.HealthEngine` (creating
        the streaming layer if needed); returns it (idempotent).

        The engine reports through a weak proxy of this session, so it
        lives only as long as the session does: keep the session, not
        just the returned engine.  Once the session is gone, the next
        alert transition in ``evaluate`` raises ``ReferenceError``.
        """
        if self.health is None:
            from .health import HealthEngine, default_health_rules

            streams = self.attach_streams(window_s=window_s)
            # A proxy, not ``self``: the session owns its engine, and a
            # strong back-reference would make every session cyclic
            # garbage that only a full collection frees.
            self.health = HealthEngine(
                rules if rules is not None else default_health_rules(),
                streams, telemetry=weakref.proxy(self))
        return self.health

    def clear(self) -> None:
        self.tracer.clear()
        self.metrics.__init__(enabled=self.enabled)
        self.streams = None
        self.health = None


DISABLED = Telemetry(enabled=False)

_active: Telemetry = DISABLED


def get_active() -> Telemetry:
    """The session instrumented code reports to (disabled by default)."""
    return _active


def set_active(telemetry: Telemetry | None) -> Telemetry:
    """Install ``telemetry`` as the active session; returns the previous one."""
    global _active
    previous = _active
    _active = telemetry if telemetry is not None else DISABLED
    return previous


@contextmanager
def activate(telemetry: Telemetry):
    """Scope ``telemetry`` as the active session, restoring on exit."""
    previous = set_active(telemetry)
    try:
        yield telemetry
    finally:
        set_active(previous)
