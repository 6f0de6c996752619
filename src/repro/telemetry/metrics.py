"""Metrics registry: counters, gauges, and percentile histograms.

The paper's throughput methodology (Section VI) quotes the median over time
with a central-68% confidence interval; :class:`Histogram` summaries reuse
exactly that convention (and :class:`repro.perf.stats.ThroughputStats` as
the carrier) so every latency/throughput metric in the repo reports the
same way the figures do.

Series are keyed by name plus sorted labels, Prometheus-style:
``registry.counter("comm.bytes", rank=0)`` and ``rank=1`` are distinct
series of the same metric.  A disabled registry hands out shared no-op
instruments so instrumented code pays nothing.
"""
from __future__ import annotations

import threading
from dataclasses import asdict, dataclass

import numpy as np

__all__ = ["Counter", "Gauge", "Histogram", "HistogramSummary",
           "MetricsRegistry", "series_key"]


def series_key(name: str, labels: dict) -> str:
    """Canonical series identifier: ``name{k=v,...}`` with sorted labels."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonically increasing count (events, bytes, messages)."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """Last-written value plus the observed min/max envelope."""

    __slots__ = ("value", "min", "max", "updates")

    def __init__(self):
        self.value = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.updates = 0

    def set(self, value: float) -> None:
        value = float(value)
        self.value = value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        self.updates += 1


@dataclass(frozen=True)
class HistogramSummary:
    """Paper-style distribution summary of one histogram series."""

    count: int
    mean: float
    min: float
    max: float
    median: float
    p16: float      # central-68% lower bound (Section VI convention)
    p84: float      # central-68% upper bound
    p99: float

    def as_dict(self) -> dict:
        return asdict(self)


class Histogram:
    """Raw-sample histogram summarized by percentiles at snapshot time."""

    __slots__ = ("_values", "_lock")

    def __init__(self):
        self._values: list[float] = []
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        if value != value:          # NaN would poison every percentile
            raise ValueError("histogram sample must not be NaN")
        with self._lock:
            self._values.append(value)

    @property
    def count(self) -> int:
        return len(self._values)

    def values(self) -> np.ndarray:
        with self._lock:
            return np.asarray(self._values, dtype=np.float64)

    def summary(self) -> HistogramSummary:
        v = self.values()
        if v.size == 0:
            return HistogramSummary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        p16, med, p84, p99 = np.percentile(v, [16, 50, 84, 99])
        return HistogramSummary(
            count=int(v.size), mean=float(v.mean()), min=float(v.min()),
            max=float(v.max()), median=float(med), p16=float(p16),
            p84=float(p84), p99=float(p99),
        )


class _NullInstrument:
    """Shared do-nothing counter/gauge/histogram for disabled registries."""

    __slots__ = ()
    value = 0.0
    count = 0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class MetricsRegistry:
    """Get-or-create home for labeled metric series."""

    def __init__(self, enabled: bool = True):
        self.enabled = bool(enabled)
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def _get(self, table: dict, factory, name: str, labels: dict):
        if not self.enabled:
            return _NULL_INSTRUMENT
        key = series_key(name, labels)
        inst = table.get(key)
        if inst is None:
            with self._lock:
                inst = table.setdefault(key, factory())
        return inst

    def counter(self, name: str, **labels) -> Counter:
        return self._get(self._counters, Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(self._gauges, Gauge, name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get(self._histograms, Histogram, name, labels)

    def snapshot(self) -> dict:
        """Point-in-time export of every series (JSON-serializable)."""
        with self._lock:
            counters = {k: c.value for k, c in self._counters.items()}
            gauges = {
                k: {"value": g.value, "min": g.min, "max": g.max,
                    "updates": g.updates}
                for k, g in self._gauges.items() if g.updates
            }
            histograms = {k: h.summary().as_dict()
                          for k, h in self._histograms.items()}
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms}
