"""Streaming time-windowed aggregation over telemetry series.

The registry (:mod:`repro.telemetry.metrics`) is cumulative — perfect for
end-of-run reports, useless for *control*: an autoscaler or health rule
needs "requests/s over the last window", not "requests since boot".  This
module adds the streaming layer:

* **Tumbling windows** — observations land in aligned ``floor(t / width)``
  buckets; :meth:`StreamingAggregator.advance` closes every bucket strictly
  before the current one and publishes a :class:`WindowSummary` per series.
* **EWMA tracking** — each series keeps an exponentially-weighted mean and
  variance of its closed-window means (half-life in seconds), the baseline
  the health engine's anomaly rules compare against.
* **Pull sampling** — :meth:`StreamingAggregator.sample` diffs a
  :class:`~repro.telemetry.metrics.MetricsRegistry` snapshot into windowed
  observations (counter deltas, gauge values, new histogram samples), so
  existing instrumentation feeds the stream without changes.
* **Subscriptions** — ``subscribe("serve.latency*", fn)`` delivers every
  closed window of matching series; this is the API ``repro.serve`` and a
  future autoscaler consume.

All timestamps are seconds on the session clock's timeline, so a
:class:`~repro.telemetry.clock.SimulatedClock` drives windows in virtual
time deterministically.
"""
from __future__ import annotations

import fnmatch
import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .metrics import MetricsRegistry, series_key

__all__ = ["WindowSummary", "Ewma", "StreamingAggregator"]

#: A closed window's quantiles: ``np.percentile``'s ``[16, 50, 84] / 100``.
_QUANTILES = (0.16, 0.5, 0.84)

#: Per-series EWMA half-life, in windows.
EWMA_HALFLIFE_WINDOWS = 8


def _mixed_zero_signs(values) -> bool:
    return len({math.copysign(1.0, v) for v in values if v == 0.0}) > 1


def _window_quantiles(values: list[float]) -> tuple[float, float, float]:
    """``np.percentile(values, [16, 50, 84])``, bit for bit, from one sort.

    NumPy's 'linear' method: the virtual index ``(n - 1) * q`` has the
    neighbours ``lo = floor`` and ``hi = lo + 1`` (both the last element
    when the index reaches ``n - 1``, where NumPy's weight becomes
    ``index + 1``), and ``_lerp`` returns ``a + (b - a) * t`` below
    ``t = 0.5`` and ``b - (b - a) * (1 - t)`` from it.  One NaN anywhere
    makes all three NaN.  A sort fixes every value a quantile reads but
    one: NumPy's partition leaves ``+0.0`` and ``-0.0`` in no set order,
    and the upper branch returns ``hi``'s zero sign as it finds it, so a
    window holding both zero signs that lands there asks NumPy itself.
    """
    s = sorted(values)
    if any(v != v for v in s):
        return (math.nan, math.nan, math.nan)
    last = len(s) - 1
    out = []
    for q in _QUANTILES:
        index = last * q
        if index >= last:
            lo = hi = last
            t = index + 1.0
        else:
            lo = int(index)
            hi = lo + 1
            t = index - lo
        a, b = s[lo], s[hi]
        if t < 0.5:
            out.append(a + (b - a) * t)
        elif b == 0.0 and _mixed_zero_signs(s):
            p16, med, p84 = np.percentile(values, [16, 50, 84])
            return (float(p16), float(med), float(p84))
        else:
            out.append(b - (b - a) * (1.0 - t))
    return (out[0], out[1], out[2])


@dataclass(frozen=True)
class WindowSummary:
    """One series' aggregate over one closed tumbling window."""

    series: str
    start: float
    end: float
    count: int
    total: float
    mean: float
    minimum: float
    maximum: float
    last: float
    rate: float          # total / window width (per-second)
    median: float
    p16: float
    p84: float

    @property
    def width(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "series": self.series, "start": self.start, "end": self.end,
            "count": self.count, "total": self.total, "mean": self.mean,
            "min": self.minimum, "max": self.maximum, "last": self.last,
            "rate": self.rate, "median": self.median, "p16": self.p16,
            "p84": self.p84,
        }


class Ewma:
    """Exponentially-weighted mean/variance with a time-based half-life."""

    __slots__ = ("halflife_s", "mean", "var", "updates", "_last_t")

    def __init__(self, halflife_s: float):
        if halflife_s <= 0:
            raise ValueError("halflife_s must be positive")
        self.halflife_s = float(halflife_s)
        self.mean = 0.0
        self.var = 0.0
        self.updates = 0
        self._last_t: float | None = None

    @property
    def std(self) -> float:
        return math.sqrt(max(self.var, 0.0))

    def update(self, value: float, t: float) -> None:
        value = float(value)
        if self._last_t is None:
            self.mean, self.var = value, 0.0
        else:
            dt = max(t - self._last_t, 0.0)
            alpha = 1.0 - 0.5 ** (dt / self.halflife_s) if dt > 0 else 0.5
            diff = value - self.mean
            incr = alpha * diff
            self.mean += incr
            self.var = (1.0 - alpha) * (self.var + diff * incr)
        self._last_t = t
        self.updates += 1

    def zscore(self, value: float) -> float:
        """How many EW standard deviations ``value`` sits from the mean."""
        if self.updates < 1:
            return 0.0
        std = self.std
        if std <= 1e-12:
            return 0.0 if value == self.mean else math.inf
        return (value - self.mean) / std


class StreamingAggregator:
    """Tumbling-window + EWMA aggregation with subscriptions.

    Parameters
    ----------
    clock:
        Timestamp source for observations without an explicit ``t``; pass
        the session's clock (simulated or wall).
    window_s:
        Tumbling window width in (virtual) seconds.

    Each series keeps an EWMA baseline with a half-life of
    ``EWMA_HALFLIFE_WINDOWS`` windows and its latest closed summary.
    """

    def __init__(self, clock=None, window_s: float = 1.0):
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        self.clock = clock
        self.window_s = float(window_s)
        self.ewma_halflife_s = float(EWMA_HALFLIFE_WINDOWS * window_s)
        # series -> window index -> list of values (open buckets)
        self._open: dict[str, dict[int, list[float]]] = defaultdict(dict)
        self._latest: dict[str, WindowSummary] = {}
        self._ewma: dict[str, Ewma] = {}
        self._subs: list[tuple[str, object]] = []
        # pull-sampling cursors into a MetricsRegistry
        self._counter_seen: dict[str, float] = {}
        self._hist_seen: dict[str, int] = {}

    # -- ingest --------------------------------------------------------------

    def _now(self) -> float:
        if self.clock is None:
            raise ValueError("no clock configured; pass t= explicitly")
        return self.clock.now()

    def observe(self, name: str, value: float, t: float | None = None,
                **labels) -> None:
        """Record one observation of ``name{labels}`` at time ``t``."""
        t = self._now() if t is None else float(t)
        idx = int(math.floor(t / self.window_s))
        key = series_key(name, labels)
        self._open[key].setdefault(idx, []).append(float(value))

    def sample(self, registry: MetricsRegistry | dict,
               t: float | None = None) -> int:
        """Diff a registry snapshot into the stream; returns observations.

        Counters contribute their *delta* since the previous sample (so a
        closed window's ``total``/``rate`` read as events per window /
        per second); gauges contribute their current value; histograms
        contribute each raw sample not seen by a previous call.
        """
        t = self._now() if t is None else float(t)
        n = 0
        if isinstance(registry, MetricsRegistry):
            counters = {k: c.value for k, c in registry._counters.items()}
            hist_values = {k: h.values()
                           for k, h in registry._histograms.items()}
            gauges = {k: g.value for k, g in registry._gauges.items()
                      if g.updates}
        else:
            counters = dict(registry.get("counters", {}))
            gauges = {k: v["value"]
                      for k, v in registry.get("gauges", {}).items()}
            hist_values = {}
        for key, value in counters.items():
            delta = value - self._counter_seen.get(key, 0.0)
            self._counter_seen[key] = value
            if delta:
                self.observe(key, delta, t=t)
                n += 1
        for key, value in gauges.items():
            self.observe(key, value, t=t)
            n += 1
        for key, values in hist_values.items():
            seen = self._hist_seen.get(key, 0)
            fresh = values[seen:]
            self._hist_seen[key] = int(values.size)
            for v in fresh:
                self.observe(key, float(v), t=t)
                n += 1
        return n

    # -- window lifecycle ----------------------------------------------------

    def advance(self, t: float | None = None) -> list[WindowSummary]:
        """Close every window strictly before ``floor(t / width)``.

        Returns the newly closed summaries (also kept as each series'
        latest, folded into EWMAs, and delivered to subscribers), ordered
        by window start then series name.
        """
        t = self._now() if t is None else float(t)
        horizon = int(math.floor(t / self.window_s))
        closing: list[tuple[int, str, list[float]]] = []
        for key, buckets in self._open.items():
            for idx in [i for i in buckets if i < horizon]:
                closing.append((idx, key, buckets.pop(idx)))
        closing.sort(key=lambda item: (item[0], item[1]))
        out: list[WindowSummary] = []
        for idx, key, values in closing:
            arr = np.asarray(values, dtype=np.float64)
            total = float(arr.sum())
            p16, med, p84 = _window_quantiles(values)
            start = idx * self.window_s
            end = start + self.window_s
            # ``total / count`` is ``arr.mean()``: NumPy divides the same
            # pairwise sum by the count.
            summary = WindowSummary(
                series=key, start=start, end=end, count=len(values),
                total=total, mean=total / len(values),
                minimum=float(arr.min()), maximum=float(arr.max()),
                last=values[-1], rate=total / self.window_s,
                median=med, p16=p16, p84=p84,
            )
            self._latest[key] = summary
            ewma = self._ewma.get(key)
            if ewma is None:
                ewma = self._ewma[key] = Ewma(self.ewma_halflife_s)
            ewma.update(summary.mean, summary.end)
            out.append(summary)
            for pattern, fn in self._subs:
                if fnmatch.fnmatchcase(key, pattern):
                    fn(summary)
        return out

    # -- queries -------------------------------------------------------------

    def series_names(self) -> list[str]:
        return sorted(set(self._latest) | set(self._open))

    def latest(self, series: str) -> WindowSummary | None:
        return self._latest.get(series)

    def ewma(self, series: str) -> Ewma | None:
        return self._ewma.get(series)

    # -- subscriptions -------------------------------------------------------

    def tick(self, registry: MetricsRegistry | dict,
             t: float | None = None) -> list[WindowSummary]:
        """One control-loop beat: :meth:`sample` then :meth:`advance`.

        The shape every periodic consumer wants (the fleet's control
        tick, test harnesses): fold the registry's current state into
        the stream, then close every window the clock has passed —
        returning the newly closed summaries.
        """
        self.sample(registry, t=t)
        return self.advance(t)

    def subscribe(self, pattern: str, fn) -> None:
        """Call ``fn(summary)`` for every closed window matching ``pattern``.

        ``pattern`` is an ``fnmatch``-style glob over full series keys
        (e.g. ``"serve.latency_s*"`` matches every lane label).
        """
        self._subs.append((pattern, fn))
