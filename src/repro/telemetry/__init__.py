"""Unified telemetry: spans, metrics, and whole-run Chrome traces.

The measurement substrate for every layer of the reproduction — the
trainer's step loop, the input pipeline, the gradient exchange, and the
event simulators all report into one session (:class:`Telemetry`) that
exports a single ``chrome://tracing`` timeline, a JSONL structured log,
and a paper-style (median, central-68%) metrics report.

Typical use::

    from repro.telemetry import Telemetry, activate
    from repro.telemetry.export import write_chrome_trace, render_metrics_report

    tel = Telemetry()
    with activate(tel):
        trainer.train_step(images, labels)      # instrumented internally
    write_chrome_trace("trace.json", tel.tracer.spans())
    print(render_metrics_report(tel.metrics))

Telemetry is **off by default**: un-instrumented runs resolve the shared
disabled session and pay only a no-op context manager per span site.
"""
from .clock import SimulatedClock, WallClock
from .export import (
    chrome_trace,
    render_metrics_report,
    write_chrome_trace,
    write_jsonl,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    HistogramSummary,
    MetricsRegistry,
    series_key,
)
from .distributed import CrossRankTrace, MessageLink, StepBreakdown
from .health import (Alert, HealthEngine, HealthRule, default_health_rules,
                     fleet_health_rules)
from .session import DISABLED, Telemetry, activate, get_active, set_active
from .streaming import Ewma, StreamingAggregator, WindowSummary
from .tracer import NULL_SPAN, Span, Tracer

__all__ = [
    "CrossRankTrace",
    "MessageLink",
    "StepBreakdown",
    "StreamingAggregator",
    "WindowSummary",
    "Ewma",
    "HealthEngine",
    "HealthRule",
    "Alert",
    "default_health_rules",
    "fleet_health_rules",
    "Telemetry",
    "activate",
    "get_active",
    "set_active",
    "DISABLED",
    "Tracer",
    "Span",
    "NULL_SPAN",
    "WallClock",
    "SimulatedClock",
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramSummary",
    "MetricsRegistry",
    "series_key",
    "chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "render_metrics_report",
]
