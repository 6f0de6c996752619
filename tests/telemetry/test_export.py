"""Exporters: Chrome trace validity, JSONL, text report."""
import json

import pytest

from repro.telemetry import (
    MetricsRegistry,
    Span,
    Tracer,
    chrome_trace,
    render_metrics_report,
    write_chrome_trace,
    write_jsonl,
)


def make_spans():
    tr = Tracer()
    with tr.span("step", category="trainer", step=0):
        with tr.span("forward", category="trainer"):
            pass
        with tr.span("read_sample", category="io"):
            pass
        tr.instant("overflow", category="trainer")
    return tr.spans()


class TestChromeTrace:
    def test_loads_with_json_and_timestamps_consistent(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(path, make_spans())
        doc = json.loads(path.read_text())
        complete = [r for r in doc["traceEvents"] if r["ph"] == "X"]
        assert complete
        for rec in complete:
            assert rec["ts"] >= 0
            assert rec["dur"] > 0

    def test_children_within_parents(self):
        doc = chrome_trace(make_spans())
        complete = {r["args"]["span_id"]: r for r in doc["traceEvents"]
                    if r["ph"] == "X"}
        for rec in complete.values():
            parent = rec["args"]["parent_id"]
            if parent in complete:
                p = complete[parent]
                assert rec["ts"] >= p["ts"] - 1e-6
                assert rec["ts"] + rec["dur"] <= p["ts"] + p["dur"] + 1.0

    def test_one_process_per_component(self):
        doc = chrome_trace(make_spans())
        names = {r["args"]["name"]: r["pid"] for r in doc["traceEvents"]
                 if r.get("name") == "process_name"}
        assert {"trainer", "io"} <= set(names)
        assert names["trainer"] != names["io"]
        by_cat_pid = {(r["cat"], r["pid"]) for r in doc["traceEvents"]
                      if r["ph"] in ("X", "i")}
        for cat, pid in by_cat_pid:
            assert names[cat] == pid

    def test_instant_events_exported(self):
        doc = chrome_trace(make_spans())
        instants = [r for r in doc["traceEvents"] if r["ph"] == "i"]
        assert len(instants) == 1
        assert instants[0]["name"] == "overflow"


class TestJsonl:
    def test_round_trip(self, tmp_path):
        spans = make_spans()
        reg = MetricsRegistry()
        reg.counter("steps").inc(3)
        reg.histogram("lat").observe(1.0)
        path = tmp_path / "log.jsonl"
        n = write_jsonl(path, spans, reg)
        assert n == len(spans) + 1
        *records, metrics = [json.loads(line)
                             for line in path.read_text().splitlines()]
        loaded = [Span(**{k: v for k, v in rec.items() if k != "type"})
                  for rec in records]
        assert [rec["type"] for rec in records] == ["span"] * len(spans)
        assert loaded == spans
        assert metrics["type"] == "metrics"
        assert metrics["snapshot"]["counters"]["steps"] == 3

    def test_every_line_is_json(self, tmp_path):
        path = tmp_path / "log.jsonl"
        write_jsonl(path, make_spans(), None)
        for line in path.read_text().splitlines():
            rec = json.loads(line)
            assert rec["type"] in ("span", "metrics")


class TestTextReport:
    def test_report_contains_all_series(self):
        reg = MetricsRegistry()
        reg.counter("trainer.steps").inc(10)
        reg.gauge("io.queue_depth").set(4)
        for v in (0.1, 0.2, 0.3):
            reg.histogram("trainer.step_time_s").observe(v)
        text = render_metrics_report(reg, title="test report",
                                     extra_lines=["footer line"])
        assert "test report" in text
        assert "trainer.steps" in text and "10" in text
        assert "io.queue_depth" in text
        assert "trainer.step_time_s" in text
        assert "central 68%" in text
        assert text.rstrip().endswith("footer line")
