"""Metrics registry: counters, gauges, percentile math, labels, snapshots."""
import numpy as np
import pytest

from repro.perf.stats import ThroughputStats, central68
from repro.telemetry import MetricsRegistry, series_key


class TestCounter:
    def test_inc(self):
        reg = MetricsRegistry()
        c = reg.counter("events")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_monotonic(self):
        c = MetricsRegistry().counter("x")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_get_or_create_returns_same_series(self):
        reg = MetricsRegistry()
        assert reg.counter("a", rank=0) is reg.counter("a", rank=0)
        assert reg.counter("a", rank=0) is not reg.counter("a", rank=1)


class TestGauge:
    def test_tracks_envelope(self):
        g = MetricsRegistry().gauge("depth")
        for v in (3, 8, 1, 5):
            g.set(v)
        assert g.value == 5
        assert g.min == 1
        assert g.max == 8
        assert g.updates == 4


class TestHistogram:
    def test_percentiles_match_numpy(self):
        rng = np.random.default_rng(0)
        values = rng.lognormal(0.0, 1.0, size=500)
        h = MetricsRegistry().histogram("lat")
        for v in values:
            h.observe(v)
        s = h.summary()
        assert s.count == 500
        assert s.median == pytest.approx(np.percentile(values, 50))
        assert s.p16 == pytest.approx(np.percentile(values, 16))
        assert s.p84 == pytest.approx(np.percentile(values, 84))
        assert s.p99 == pytest.approx(np.percentile(values, 99))
        assert s.mean == pytest.approx(values.mean())
        assert s.min == pytest.approx(values.min())
        assert s.max == pytest.approx(values.max())

    def test_central68_reuses_paper_stats(self):
        values = np.linspace(1.0, 100.0, 200)
        h = MetricsRegistry().histogram("t")
        for v in values:
            h.observe(v)
        stats = central68(h.values())
        assert isinstance(stats, ThroughputStats)
        lo, med, hi = np.quantile(values, [0.16, 0.5, 0.84])
        assert stats.median == pytest.approx(med)
        assert stats.lo == pytest.approx(lo)
        assert stats.hi == pytest.approx(hi)
        assert stats.err_plus == pytest.approx(hi - med)
        assert stats.err_minus == pytest.approx(med - lo)

    def test_empty_histogram_summary(self):
        s = MetricsRegistry().histogram("empty").summary()
        assert s.count == 0
        assert s.median == 0.0


class TestSeriesKeys:
    def test_labels_sorted_canonically(self):
        assert series_key("m", {"b": 1, "a": 2}) == "m{a=2,b=1}"
        assert series_key("m", {}) == "m"


class TestSnapshot:
    def test_snapshot_structure(self):
        reg = MetricsRegistry()
        reg.counter("bytes", rank=0).inc(100)
        reg.gauge("depth").set(3)
        reg.histogram("lat").observe(0.5)
        snap = reg.snapshot()
        assert snap["counters"]["bytes{rank=0}"] == 100
        assert snap["gauges"]["depth"]["value"] == 3
        assert snap["histograms"]["lat"]["count"] == 1

    def test_unset_gauges_excluded(self):
        reg = MetricsRegistry()
        reg.gauge("never_set")
        assert reg.snapshot()["gauges"] == {}


class TestDisabled:
    def test_disabled_registry_hands_out_noops(self):
        reg = MetricsRegistry(enabled=False)
        c = reg.counter("x")
        c.inc(100)
        reg.gauge("g").set(5)
        reg.histogram("h").observe(1.0)
        snap = reg.snapshot()
        assert snap == {"counters": {}, "gauges": {}, "histograms": {}}


class TestHistogramEdgeCases:
    def test_single_sample_collapses_every_percentile(self):
        h = MetricsRegistry().histogram("one")
        h.observe(2.5)
        s = h.summary()
        assert s.count == 1
        assert (s.mean, s.min, s.max) == (2.5, 2.5, 2.5)
        assert s.median == s.p16 == s.p84 == s.p99 == 2.5

    def test_all_identical_samples_have_zero_spread(self):
        h = MetricsRegistry().histogram("flat")
        for _ in range(100):
            h.observe(7.0)
        s = h.summary()
        assert s.count == 100
        assert s.p16 == s.median == s.p84 == 7.0
        stats = central68(h.values())
        assert stats.err_plus == 0.0 and stats.err_minus == 0.0

    def test_nan_sample_rejected(self):
        h = MetricsRegistry().histogram("lat")
        h.observe(0.1)
        with pytest.raises(ValueError):
            h.observe(float("nan"))
        assert h.count == 1          # the poison sample never landed
        assert np.isfinite(h.summary().median)

    def test_empty_histogram_central68_is_zero(self):
        stats = central68(MetricsRegistry().histogram("empty").values())
        assert (stats.median, stats.lo, stats.hi) == (0.0, 0.0, 0.0)
