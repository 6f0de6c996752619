"""Exporters: Chrome-trace JSON, JSONL event log, plain-text metrics report.

The Chrome trace is the whole-run analogue of the Horovod timeline the
paper's team used to find the control-plane bottleneck: one ``trace.json``
you open in ``chrome://tracing`` / Perfetto, with one process row per
component (trainer, io, comm, sim) and one thread row per lane
(thread / rank).  The gradient exchange appears as the measured
``engine.exchange``/``engine.bucket`` spans beside its per-rank wire
messages; this module is the one place that knows the event format.
"""
from __future__ import annotations

import json
from pathlib import Path

from .metrics import MetricsRegistry
from .tracer import Span

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "render_metrics_report",
]

# Preferred process-row order in the trace viewer; unknown categories are
# appended alphabetically after these.
_CATEGORY_ORDER = ("trainer", "io", "comm", "comm.msg", "serve",
                   "resilience", "health", "sim", "app")


def _category_pids(spans: list[Span]) -> dict[str, int]:
    cats = {s.category for s in spans}
    ordered = [c for c in _CATEGORY_ORDER if c in cats]
    ordered += sorted(cats - set(ordered))
    return {c: i + 1 for i, c in enumerate(ordered)}


def chrome_trace(spans: list[Span]) -> dict:
    """Build the ``chrome://tracing`` document for a set of spans."""
    pids = _category_pids(spans)
    records: list[dict] = []
    lanes_seen: set[tuple[int, int]] = set()
    for cat, pid in pids.items():
        records.append({"name": "process_name", "ph": "M", "pid": pid,
                        "tid": 0, "args": {"name": cat}})
    for s in spans:
        pid = pids[s.category]
        if (pid, s.lane) not in lanes_seen:
            lanes_seen.add((pid, s.lane))
            # Wire-message lanes are rank lanes: name them stably so the
            # merged cross-rank trace reads "rank N", not "lane-N".
            lane_name = (f"rank {s.lane}" if s.category == "comm.msg"
                         else f"lane-{s.lane}")
            records.append({"name": "thread_name", "ph": "M", "pid": pid,
                            "tid": s.lane,
                            "args": {"name": lane_name}})
        rec = {
            "name": s.name,
            "cat": s.category,
            "ts": s.start_us,
            "pid": pid,
            "tid": s.lane,
            "args": dict(s.args, span_id=s.span_id,
                         parent_id=s.parent_id),
        }
        if s.kind == "instant":
            rec["ph"] = "i"
            rec["s"] = "t"
        else:
            rec["ph"] = "X"
            rec["dur"] = max(s.duration_us, 0.01)
        records.append(rec)
        # Matched send/recv events additionally emit Chrome flow records,
        # which the trace viewer renders as an arrow between rank lanes.
        edge = s.args.get("msg_edge")
        if edge in ("send", "recv") and "msg_id" in s.args:
            flow = {"name": "msg", "cat": s.category, "id": s.args["msg_id"],
                    "ts": s.start_us, "pid": pid, "tid": s.lane}
            if edge == "send":
                flow["ph"] = "s"
            else:
                flow["ph"] = "f"
                flow["bp"] = "e"
            records.append(flow)
    return {"traceEvents": records, "displayTimeUnit": "ms"}


def write_chrome_trace(path, spans: list[Span]) -> dict:
    """Serialize :func:`chrome_trace` to ``path``; returns the document."""
    doc = chrome_trace(spans)
    Path(path).write_text(json.dumps(doc, indent=1))
    return doc


# -- JSONL structured log ----------------------------------------------------

def write_jsonl(path, spans: list[Span],
                metrics: MetricsRegistry | dict | None = None) -> int:
    """Write one JSON object per line: spans, then a metrics snapshot.

    Returns the line count.
    """
    lines = []
    for s in spans:
        lines.append(json.dumps({
            "type": "span", "name": s.name, "category": s.category,
            "start_us": s.start_us, "duration_us": s.duration_us,
            "span_id": s.span_id, "parent_id": s.parent_id,
            "lane": s.lane, "kind": s.kind, "args": s.args,
        }))
    if metrics is not None:
        snap = metrics.snapshot() if isinstance(metrics, MetricsRegistry) else metrics
        lines.append(json.dumps({"type": "metrics", "snapshot": snap}))
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))
    return len(lines)


# -- plain-text metrics report ----------------------------------------------

def render_metrics_report(metrics: MetricsRegistry | dict,
                          title: str = "Telemetry metrics",
                          extra_lines: list[str] | None = None) -> str:
    """Human-readable summary of every metric series.

    Histograms print the paper's convention: median with the asymmetric
    central-68% interval (+p84-median / -median-p16).
    """
    snap = metrics.snapshot() if isinstance(metrics, MetricsRegistry) else metrics
    lines = [title, "=" * len(title), ""]
    if snap["counters"]:
        lines.append("counters:")
        for key in sorted(snap["counters"]):
            value = snap["counters"][key]
            text = f"{value:,.0f}" if value == int(value) else f"{value:,.3f}"
            lines.append(f"  {key:<44s} {text}")
        lines.append("")
    if snap["gauges"]:
        lines.append("gauges (last / min / max):")
        for key in sorted(snap["gauges"]):
            g = snap["gauges"][key]
            lines.append(f"  {key:<44s} {g['value']:.3f} / "
                         f"{g['min']:.3f} / {g['max']:.3f}")
        lines.append("")
    if snap["histograms"]:
        lines.append("histograms (median +hi/-lo, central 68%):")
        for key in sorted(snap["histograms"]):
            h = snap["histograms"][key]
            if not h["count"]:
                continue
            lines.append(
                f"  {key:<44s} {h['median']:.6g} "
                f"+{h['p84'] - h['median']:.3g}/-{h['median'] - h['p16']:.3g} "
                f"(n={h['count']}, mean={h['mean']:.6g}, max={h['max']:.6g})")
        lines.append("")
    for line in extra_lines or []:
        lines.append(line)
    return "\n".join(lines).rstrip() + "\n"
