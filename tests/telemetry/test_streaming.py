"""Streaming aggregator: tumbling windows, registry sampling, EWMA, subs."""
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry import (Ewma, MetricsRegistry, SimulatedClock,
                             StreamingAggregator, WindowSummary)


def make(window_s=1.0):
    clock = SimulatedClock()
    return clock, StreamingAggregator(clock=clock, window_s=window_s)


class TestTumblingWindows:
    def test_windows_align_to_floor_of_t(self):
        _, agg = make()
        agg.observe("x", 1.0, t=0.2)
        agg.observe("x", 3.0, t=0.9)
        agg.observe("x", 5.0, t=1.1)      # next bucket
        closed = agg.advance(1.0)
        assert len(closed) == 1
        w = closed[0]
        assert (w.start, w.end) == (0.0, 1.0)
        assert w.count == 2
        assert w.mean == pytest.approx(2.0)
        assert w.total == pytest.approx(4.0)
        assert w.rate == pytest.approx(4.0)
        assert w.last == pytest.approx(3.0)

    def test_advance_closes_strictly_before_current_window(self):
        _, agg = make()
        agg.observe("x", 1.0, t=0.5)
        assert agg.advance(0.99) == []           # window 0 still open
        assert len(agg.advance(1.0)) == 1        # now it closes
        assert agg.advance(5.0) == []            # nothing new to close

    def test_closed_ordered_by_window_then_series(self):
        _, agg = make()
        agg.observe("b", 1.0, t=0.5)
        agg.observe("a", 1.0, t=0.5)
        agg.observe("a", 1.0, t=1.5)
        closed = agg.advance(2.0)
        assert [(w.series, w.start) for w in closed] == [
            ("a", 0.0), ("b", 0.0), ("a", 1.0)]

    def test_labels_become_series_keys(self):
        _, agg = make()
        agg.observe("rank_s", 1.0, t=0.5, rank=3)
        (w,) = agg.advance(1.0)
        assert w.series == "rank_s{rank=3}"

    def test_clockless_observe_requires_explicit_t(self):
        agg = StreamingAggregator(clock=None, window_s=1.0)
        with pytest.raises(ValueError):
            agg.observe("x", 1.0)
        agg.observe("x", 1.0, t=0.5)      # explicit t is fine

    def test_simulated_clock_drives_default_timestamps(self):
        clock, agg = make()
        clock.advance(0.5)
        agg.observe("x", 2.0)              # lands at t=0.5
        clock.advance(1.0)
        closed = agg.advance()             # closes window 0 at t=1.5
        assert len(closed) == 1
        assert closed[0].start == 0.0


def bits(x: float) -> bytes:
    """A float's exact bytes; every NaN reads as one value."""
    return b"nan" if math.isnan(x) else struct.pack("<d", x)


SPECIAL = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan,
                           1e-300, -1e-300, 1e300, -1e300, 5e-324])
SCALED = st.builds(lambda m, e: m * 10.0 ** e,
                   st.floats(-9.99, 9.99), st.integers(-300, 299))
VALUE = st.one_of(SPECIAL, SCALED, st.floats())
WINDOW = st.one_of(
    st.lists(VALUE, min_size=1, max_size=40),
    # Ties: many draws from a few values (zeros of both signs included).
    st.lists(VALUE, min_size=1, max_size=4).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1,
                              max_size=40)))


class TestWindowStatisticsExact:
    @given(WINDOW)
    @settings(max_examples=300, deadline=None)
    def test_quantiles_bit_equal_numpy(self, values):
        _, agg = make()
        for v in values:
            agg.observe("x", v, t=0.5)
        arr = np.array(values, dtype=np.float64)
        with np.errstate(all="ignore"):     # inf - inf is NaN, as asked
            (w,) = agg.advance(1.0)
            expect = np.percentile(arr, [16, 50, 84])
            total = arr.sum()
            mean = arr.mean()
        assert [bits(w.p16), bits(w.median), bits(w.p84)] == [
            bits(float(q)) for q in expect]
        assert bits(w.total) == bits(float(total))
        assert bits(w.mean) == bits(float(mean))
        assert w.count == len(values)


class TestRegistrySampling:
    def test_counter_deltas_not_cumulative_values(self):
        _, agg = make()
        reg = MetricsRegistry()
        c = reg.counter("steps")
        c.inc(3)
        agg.sample(reg, t=0.5)
        c.inc(2)
        agg.sample(reg, t=1.5)
        totals = [w.total for w in agg.advance(2.0)]
        assert totals == [pytest.approx(3.0), pytest.approx(2.0)]

    def test_unchanged_counter_contributes_nothing(self):
        _, agg = make()
        reg = MetricsRegistry()
        reg.counter("steps").inc()
        assert agg.sample(reg, t=0.5) == 1
        assert agg.sample(reg, t=1.5) == 0     # no delta, no observation

    def test_gauges_sampled_as_values(self):
        _, agg = make()
        reg = MetricsRegistry()
        reg.gauge("world").set(8)
        agg.sample(reg, t=0.5)
        reg.gauge("world").set(7)
        agg.sample(reg, t=1.5)
        assert [w.last for w in agg.advance(2.0)] == [8.0, 7.0]

    def test_histogram_samples_consumed_once(self):
        _, agg = make()
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        h.observe(0.1)
        h.observe(0.2)
        agg.sample(reg, t=0.5)
        h.observe(0.4)
        agg.sample(reg, t=0.6)             # only the new sample lands
        (w,) = agg.advance(1.0)
        assert w.count == 3
        assert w.total == pytest.approx(0.7)


class TestEwma:
    def test_first_update_seeds_mean(self):
        e = Ewma(halflife_s=2.0)
        e.update(10.0, t=0.0)
        assert e.mean == 10.0
        assert e.std == 0.0

    def test_halflife_semantics(self):
        e = Ewma(halflife_s=2.0)
        e.update(0.0, t=0.0)
        e.update(10.0, t=2.0)              # exactly one half-life later
        assert e.mean == pytest.approx(5.0)

    def test_zscore_inf_on_zero_variance_jump(self):
        e = Ewma(halflife_s=1.0)
        e.update(1.0, t=0.0)
        e.update(1.0, t=1.0)
        assert e.zscore(1.0) == 0.0
        assert math.isinf(e.zscore(2.0))

    def test_aggregator_maintains_per_series_ewma(self):
        _, agg = make()
        for i in range(5):
            agg.observe("x", 2.0, t=i + 0.5)
        agg.advance(5.0)
        e = agg.ewma("x")
        assert e is not None
        assert e.updates == 5
        assert e.mean == pytest.approx(2.0)

    def test_invalid_halflife_rejected(self):
        with pytest.raises(ValueError):
            Ewma(halflife_s=0.0)


class TestSubscriptionsAndCursor:
    def test_glob_subscription_delivers_matching_windows(self):
        _, agg = make()
        got = []
        agg.subscribe("serve.latency_s*", got.append)
        agg.observe("serve.latency_s", 0.1, t=0.5, lane="bulk")
        agg.observe("trainer.step_time_s", 1.0, t=0.5)
        agg.advance(1.0)
        assert [w.series for w in got] == ["serve.latency_s{lane=bulk}"]

    def test_window_summary_serializes(self):
        _, agg = make()
        agg.observe("x", 1.0, t=0.5)
        (w,) = agg.advance(1.0)
        d = w.as_dict()
        assert d["series"] == "x" and d["count"] == 1
        assert isinstance(w, WindowSummary)
        assert w.width == pytest.approx(1.0)


class TestValidation:
    def test_nonpositive_window_rejected(self):
        with pytest.raises(ValueError):
            StreamingAggregator(window_s=0.0)
