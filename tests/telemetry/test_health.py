"""Health engine: rule kinds, firing/resolved lifecycle, reporting."""
import gc
import json
import weakref

import pytest

from repro.telemetry import (HealthEngine, HealthRule, SimulatedClock,
                             StreamingAggregator, Telemetry,
                             default_health_rules)


def make_engine(rules, window_s=1.0, telemetry=None):
    streams = StreamingAggregator(clock=SimulatedClock(), window_s=window_s)
    return streams, HealthEngine(rules, streams, telemetry=telemetry)


def feed(streams, series, values, start=0.0, **labels):
    """One observation per consecutive window, starting at ``start``."""
    for i, v in enumerate(values):
        streams.observe(series, v, t=start + i + 0.5, **labels)


class TestRuleValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            HealthRule(name="x", series="s", kind="nope")

    def test_unknown_severity_op_stat_rejected(self):
        with pytest.raises(ValueError):
            HealthRule(name="x", series="s", severity="fatal")
        with pytest.raises(ValueError):
            HealthRule(name="x", series="s", op="!=")
        with pytest.raises(ValueError):
            HealthRule(name="x", series="s", stat="p99")


class TestThreshold:
    def test_fire_then_resolve_lifecycle(self):
        rule = HealthRule(name="hot", series="q", kind="threshold",
                          stat="mean", op=">", value=10.0)
        streams, eng = make_engine([rule])
        feed(streams, "q", [5.0, 20.0, 20.0, 5.0])
        fired = eng.evaluate(t=4.0)
        assert [a.rule for a in fired] == ["hot"]
        (alert,) = eng.alerts
        assert alert.state == "resolved"
        assert alert.fired_at == pytest.approx(2.0)   # end of first breach
        assert alert.resolved_at == pytest.approx(4.0)

    def test_for_windows_requires_streak(self):
        rule = HealthRule(name="hot", series="q", value=10.0, for_windows=2)
        streams, eng = make_engine([rule])
        feed(streams, "q", [20.0, 5.0, 20.0, 5.0])    # never two in a row
        assert eng.evaluate(t=4.0) == []
        feed(streams, "q", [20.0, 20.0], start=4.0)
        assert len(eng.evaluate(t=6.0)) == 1

    def test_resolve_windows_requires_ok_streak(self):
        rule = HealthRule(name="hot", series="q", value=10.0,
                          resolve_windows=2)
        streams, eng = make_engine([rule])
        feed(streams, "q", [20.0, 5.0, 20.0])
        eng.evaluate(t=3.0)
        assert len(eng.firing()) == 1                 # one OK isn't enough
        feed(streams, "q", [5.0, 5.0], start=3.0)
        eng.evaluate(t=5.0)
        assert eng.firing() == []

    def test_glob_series_matches_every_label(self):
        rule = HealthRule(name="shed", series="serve.shed*", stat="total",
                          op=">", value=0.0)
        streams, eng = make_engine([rule])
        streams.observe("serve.shed", 1.0, t=0.5, lane="bulk")
        streams.observe("serve.shed", 1.0, t=0.5, lane="rt")
        eng.evaluate(t=1.0)
        assert sorted(a.series for a in eng.firing()) == [
            "serve.shed{lane=bulk}", "serve.shed{lane=rt}"]


class TestRateOfChange:
    def test_world_shrink_fires_on_negative_derivative(self):
        rule = HealthRule(name="shrunk", series="dist.world_size",
                          kind="rate_of_change", stat="last", op="<",
                          value=0.0)
        streams, eng = make_engine([rule])
        feed(streams, "dist.world_size", [8.0, 8.0, 7.0, 7.0])
        fired = eng.evaluate(t=4.0)
        assert [a.rule for a in fired] == ["shrunk"]
        (alert,) = eng.alerts
        assert alert.state == "resolved"              # steady again at 7
        assert alert.value == pytest.approx(-1.0)     # ranks per second

    def test_first_window_has_no_derivative(self):
        rule = HealthRule(name="shrunk", series="w", kind="rate_of_change",
                          stat="last", op="<", value=0.0)
        streams, eng = make_engine([rule])
        feed(streams, "w", [7.0])                     # no baseline yet
        assert eng.evaluate(t=1.0) == []


class TestEwmaAnomaly:
    def test_jump_after_flat_baseline_fires(self):
        rule = HealthRule(name="anom", series="st", kind="ewma_anomaly",
                          sigma=3.0, warmup=3)
        streams, eng = make_engine([rule])
        feed(streams, "st", [1.0] * 6 + [4.0])
        fired = eng.evaluate(t=7.0)
        assert [a.rule for a in fired] == ["anom"]
        # Even off a zero-variance baseline the z-score stays finite
        # (clamped to +/-99 when the EW std is exactly zero): JSON-safe.
        assert 3.0 <= abs(fired[0].value) <= 99.0
        json.dumps(fired[0].as_dict())

    def test_warmup_suppresses_early_windows(self):
        rule = HealthRule(name="anom", series="st", kind="ewma_anomaly",
                          sigma=3.0, warmup=5)
        streams, eng = make_engine([rule])
        feed(streams, "st", [1.0, 1.0, 9.0])          # jump inside warmup
        assert eng.evaluate(t=3.0) == []


class TestSloBurn:
    def test_burn_fraction_fires_and_reports_context(self):
        rule = HealthRule(name="slo", series="lat", kind="slo_burn",
                          stat="median", op=">", slo_target=0.5,
                          budget_fraction=0.5, budget_windows=4)
        streams, eng = make_engine([rule])
        feed(streams, "lat", [1.0, 1.0, 1.0, 0.1])
        fired = eng.evaluate(t=4.0)
        assert len(fired) == 1
        assert fired[0].context["burn"] == pytest.approx(0.75)

    def test_under_budget_stays_quiet(self):
        rule = HealthRule(name="slo", series="lat", kind="slo_burn",
                          stat="median", op=">", slo_target=0.5,
                          budget_fraction=0.5, budget_windows=4)
        streams, eng = make_engine([rule])
        feed(streams, "lat", [0.1, 1.0, 0.1, 0.1])    # 25% burn
        assert eng.evaluate(t=4.0) == []


class TestImbalance:
    def test_straggler_rank_named_from_series_label(self):
        rule = HealthRule(name="imb", series="rank_s{rank=*}",
                          kind="imbalance", stat="mean", value=2.0)
        streams, eng = make_engine([rule])
        for rank in range(4):
            streams.observe("rank_s", 4.0 if rank == 3 else 1.0,
                            t=0.5, rank=rank)
        fired = eng.evaluate(t=1.0)
        assert len(fired) == 1
        assert fired[0].context["straggler_rank"] == 3
        assert fired[0].context["ratio"] == pytest.approx(4.0)

    def test_balanced_family_stays_quiet(self):
        rule = HealthRule(name="imb", series="rank_s{rank=*}",
                          kind="imbalance", stat="mean", value=2.0)
        streams, eng = make_engine([rule])
        for rank in range(4):
            streams.observe("rank_s", 1.0, t=0.5, rank=rank)
        assert eng.evaluate(t=1.0) == []

    def test_single_series_window_skipped(self):
        rule = HealthRule(name="imb", series="rank_s{rank=*}",
                          kind="imbalance", stat="mean", value=2.0)
        streams, eng = make_engine([rule])
        streams.observe("rank_s", 9.0, t=0.5, rank=0)  # no family to skew
        assert eng.evaluate(t=1.0) == []


class TestEngineIntegration:
    def test_alerts_mirrored_into_telemetry(self):
        tel = Telemetry(clock=SimulatedClock())
        rule = HealthRule(name="hot", series="q", value=10.0)
        streams, eng = make_engine([rule], telemetry=tel)
        feed(streams, "q", [20.0, 5.0])
        eng.evaluate(t=2.0)
        names = [s.name for s in tel.tracer.spans()]
        assert "health_fired" in names and "health_resolved" in names
        assert tel.metrics.counter("health.alerts_fired",
                                   rule="hot").value == 1
        assert tel.metrics.counter("health.alerts_resolved",
                                   rule="hot").value == 1

    def test_report_and_render(self):
        rule = HealthRule(name="hot", series="q", value=10.0)
        streams, eng = make_engine([rule])
        feed(streams, "q", [20.0])
        eng.evaluate(t=1.0)
        report = json.loads(json.dumps(eng.report()))
        assert report["rules"][0]["name"] == "hot"
        assert report["firing"][0]["state"] == "firing"
        assert "q" in report["series"]
        text = eng.render()
        assert "FIRING" in text and "hot" in text

    def test_each_window_evaluated_once_then_dropped(self, monkeypatch):
        rule = HealthRule(name="hot", series="q", value=10.0)
        streams, eng = make_engine([rule])
        seen = []
        real = eng._eval_single
        monkeypatch.setattr(eng, "_eval_single",
                            lambda r, w: seen.append(w) or real(r, w))
        feed(streams, "q", [5.0, 20.0])
        eng.evaluate(t=2.0)
        assert eng._pending == []
        feed(streams, "q", [30.0], start=2.0)
        eng.evaluate(t=3.0)
        assert eng._pending == []
        assert [(w.start, w.mean) for w in seen] == [
            (0.0, 5.0), (1.0, 20.0), (2.0, 30.0)]

    def test_evaluate_without_new_windows_is_empty(self):
        rule = HealthRule(name="hot", series="q", value=10.0)
        _, eng = make_engine([rule])
        assert eng.evaluate(t=5.0) == []

    def test_attach_health_on_session(self):
        tel = Telemetry(clock=SimulatedClock())
        tel.attach_health(window_s=0.5)
        assert tel.streams is not None and tel.health is not None
        assert tel.streams.window_s == 0.5
        again = tel.health
        tel.attach_health()                            # idempotent
        assert tel.health is again
        tel.clear()
        assert tel.streams is None and tel.health is None

    def test_attached_engine_lives_only_as_long_as_its_session(self):
        # The session owns its engine; the engine's back-reference is weak,
        # so dropping the session frees it at once, without a collection.
        tel = Telemetry(clock=SimulatedClock())
        eng = tel.attach_health(rules=[HealthRule(
            name="hot", series="q", value=10.0, for_windows=1)])
        session = weakref.ref(tel)
        gc.disable()
        try:
            del tel
            assert session() is None
        finally:
            gc.enable()
        feed(eng.streams, "q", [50.0])
        with pytest.raises(ReferenceError):
            eng.evaluate(t=5.0)


class TestDefaultRules:
    def test_stock_rules_cover_all_subsystems(self):
        rules = default_health_rules()
        names = {r.name for r in rules}
        assert {"step_time_anomaly", "rank_imbalance", "step_time_slo_burn",
                "comm_message_drops", "step_retries", "world_shrunk",
                "serve_latency_slo_burn", "serve_shedding"} <= names
        kinds = {r.kind for r in rules}
        assert kinds == {"ewma_anomaly", "imbalance", "slo_burn",
                         "threshold", "rate_of_change"}
