"""Horovod-timeline reconstruction."""
import json

import numpy as np
import pytest

from repro.comm import (
    ReadinessSchedule,
    build_timeline,
    fuse_order,
    hierarchical_negotiation,
)
from repro.comm.timeline import chrome_trace_records


@pytest.fixture()
def exchange():
    names = [f"layer{i}.grad" for i in range(6)]
    schedule = ReadinessSchedule.random(8, len(names), seed=1)
    negotiation = hierarchical_negotiation(schedule, radix=4)
    sizes = {n: 1000 * (i + 1) for i, n in enumerate(names)}
    ordered = [names[t] for t in negotiation.order]
    fusion = fuse_order(ordered, sizes, threshold_bytes=3000)
    return names, negotiation, fusion


class TestTimeline:
    def test_event_structure(self, exchange):
        names, negotiation, fusion = exchange
        events = build_timeline(negotiation, fusion, names)
        negotiate = [e for e in events if e.phase == "negotiate"]
        allreduce = [e for e in events if e.phase == "allreduce"]
        assert len(negotiate) == len(names)
        assert len(allreduce) == fusion.num_collectives

    def test_allreduce_starts_after_negotiation(self, exchange):
        names, negotiation, fusion = exchange
        events = build_timeline(negotiation, fusion, names)
        decisions = {e.name: e.duration_us for e in events
                     if e.phase == "negotiate"}
        for e in events:
            if e.phase != "allreduce":
                continue
            # The buffer cannot start before its slowest member negotiated.
            members = e.name.split("+")
            known = [decisions[m] for m in members if m in decisions]
            if known:
                assert e.start_us >= max(known) - 1e-6

    def test_buffers_serialized(self, exchange):
        names, negotiation, fusion = exchange
        events = [e for e in build_timeline(negotiation, fusion, names)
                  if e.phase == "allreduce"]
        for a, b in zip(events, events[1:]):
            assert b.start_us >= a.start_us + a.duration_us - 1e-6

    def test_duration_scales_with_bandwidth(self, exchange):
        names, negotiation, fusion = exchange
        fast = build_timeline(negotiation, fusion, names,
                              allreduce_seconds_per_byte=1e-10)
        slow = build_timeline(negotiation, fusion, names,
                              allreduce_seconds_per_byte=1e-8)
        fa = [e for e in fast if e.phase == "allreduce"][0]
        sa = [e for e in slow if e.phase == "allreduce"][0]
        assert sa.duration_us == pytest.approx(100 * fa.duration_us, rel=1e-6)

    def test_chrome_trace_is_valid_json(self, exchange):
        names, negotiation, fusion = exchange
        events = build_timeline(negotiation, fusion, names)
        doc = {"traceEvents": chrome_trace_records(
            events, process_name="comm.exchange")}
        doc = json.loads(json.dumps(doc))     # must be JSON-serializable
        assert {rec["ph"] for rec in doc["traceEvents"]} == {"M", "X"}
        xs = [r for r in doc["traceEvents"] if r["ph"] == "X"]
        assert len(xs) == len(events)
        for rec in xs:
            assert rec["dur"] > 0
            assert set(rec) >= {"name", "cat", "ts", "pid", "tid"}

    def test_name_count_mismatch_rejected(self, exchange):
        names, negotiation, fusion = exchange
        with pytest.raises(ValueError):
            build_timeline(negotiation, fusion, names[:-1])


class TestChromeMetadata:
    def test_metadata_emitted_once_per_lane(self, exchange):
        names, negotiation, fusion = exchange
        events = build_timeline(negotiation, fusion, names)
        records = chrome_trace_records(events, pid=3,
                                       process_name="comm.exchange")
        meta = [r for r in records if r["ph"] == "M"]
        keys = [(r["name"], r["pid"], r.get("tid")) for r in meta]
        assert len(keys) == len(set(keys))          # no duplicates
        proc = [r for r in meta if r["name"] == "process_name"]
        assert len(proc) == 1
        assert proc[0]["args"]["name"] == "comm.exchange"

    def test_lane_zero_named_negotiate(self, exchange):
        names, negotiation, fusion = exchange
        events = build_timeline(negotiation, fusion, names)
        records = chrome_trace_records(events)
        threads = {r["tid"]: r["args"]["name"] for r in records
                   if r["ph"] == "M" and r["name"] == "thread_name"}
        assert threads[0] == "negotiate"
        assert all(name.startswith("allreduce-")
                   for tid, name in threads.items() if tid != 0)

    def test_seen_meta_dedupes_across_calls(self, exchange):
        names, negotiation, fusion = exchange
        events = build_timeline(negotiation, fusion, names)
        seen = set()
        first = chrome_trace_records(events, seen_meta=seen)
        second = chrome_trace_records(events, seen_meta=seen)
        assert any(r["ph"] == "M" for r in first)
        assert not any(r["ph"] == "M" for r in second)

