"""Span tracer: nesting, thread-locality, simulated clocks, zero overhead."""
import threading
import time

import pytest

from repro.telemetry import (
    NULL_SPAN,
    SimulatedClock,
    Tracer,
    get_active,
)


class TestNesting:
    def test_parent_child_ids(self):
        tr = Tracer()
        with tr.span("outer", category="trainer"):
            with tr.span("inner", category="trainer"):
                with tr.span("leaf", category="trainer"):
                    pass
        spans = {s.name: s for s in tr.spans()}
        assert spans["outer"].parent_id is None
        assert spans["inner"].parent_id == spans["outer"].span_id
        assert spans["leaf"].parent_id == spans["inner"].span_id

    def test_siblings_share_parent(self):
        tr = Tracer()
        with tr.span("parent"):
            with tr.span("a"):
                pass
            with tr.span("b"):
                pass
        spans = {s.name: s for s in tr.spans()}
        assert spans["a"].parent_id == spans["b"].parent_id == spans["parent"].span_id

    def test_span_ids_unique(self):
        tr = Tracer()
        for i in range(10):
            with tr.span(f"s{i}"):
                pass
        ids = [s.span_id for s in tr.spans()]
        assert len(set(ids)) == len(ids)

    def test_children_nested_within_parent_interval(self):
        tr = Tracer()
        with tr.span("outer"):
            time.sleep(0.001)
            with tr.span("inner"):
                time.sleep(0.001)
            time.sleep(0.001)
        spans = {s.name: s for s in tr.spans()}
        outer, inner = spans["outer"], spans["inner"]
        assert outer.start_us <= inner.start_us
        assert inner.end_us <= outer.end_us + 1.0   # float slack (us)
        assert outer.duration_us > inner.duration_us

    def test_exception_still_records_and_pops(self):
        tr = Tracer()
        with pytest.raises(RuntimeError):
            with tr.span("boom"):
                raise RuntimeError("x")
        assert [s.name for s in tr.spans()] == ["boom"]
        with tr.span("after"):
            pass
        assert {s.name: s for s in tr.spans()}["after"].parent_id is None


class TestThreads:
    def test_stacks_are_thread_local(self):
        tr = Tracer()
        done = threading.Event()

        def worker():
            with tr.span("worker_span"):
                done.wait(1.0)

        t = threading.Thread(target=worker)
        with tr.span("main_span"):
            t.start()
            done.set()
            t.join()
        spans = {s.name: s for s in tr.spans()}
        # The worker's span is NOT a child of the main thread's open span.
        assert spans["worker_span"].parent_id is None
        assert spans["worker_span"].lane != spans["main_span"].lane


class TestDisabled:
    def test_disabled_span_is_shared_null(self):
        tr = Tracer(enabled=False)
        assert tr.span("anything") is NULL_SPAN
        with tr.span("x"):
            pass
        assert tr.spans() == []
        tr.instant("marker")
        assert tr.spans() == []

    def test_disabled_overhead_is_negligible(self):
        tr = Tracer(enabled=False)
        n = 20000
        start = time.perf_counter()
        for _ in range(n):
            with tr.span("hot"):
                pass
        elapsed = time.perf_counter() - start
        # Generous bound: the no-op path must stay well under 10us/call.
        assert elapsed / n < 10e-6

    def test_default_active_session_is_disabled(self):
        assert not get_active().enabled
        assert get_active().tracer.span("x") is NULL_SPAN


class TestSimulatedClock:
    def test_spans_carry_virtual_time(self):
        clock = SimulatedClock()
        tr = Tracer(clock=clock)
        clock.advance_to(1.5)
        with tr.span("virtual"):
            clock.advance(0.25)
        (s,) = tr.spans()
        assert s.start_us == pytest.approx(1.5e6)
        assert s.duration_us == pytest.approx(0.25e6)

    def test_emit_records_pre_timed_spans(self):
        tr = Tracer(clock=SimulatedClock())
        parent = tr.emit("step", start_s=2.0, duration_s=1.0,
                         category="sim", lane=0)
        tr.emit("compute", start_s=2.0, duration_s=0.7, category="sim",
                lane=1, parent_id=parent, rank=0)
        spans = {s.name: s for s in tr.spans()}
        assert spans["compute"].parent_id == spans["step"].span_id
        assert spans["compute"].start_us == pytest.approx(2e6)
        assert spans["compute"].args["rank"] == 0

    def test_clock_cannot_go_backwards(self):
        clock = SimulatedClock()
        with pytest.raises(ValueError):
            clock.advance(-1.0)
        clock.advance_to(5.0)
        assert clock.advance_to(1.0) == 5.0   # no-op jump backwards


class TestInstant:
    def test_instant_records_marker(self):
        tr = Tracer()
        with tr.span("step"):
            tr.instant("overflow", category="trainer", scale=1024.0)
        spans = {s.name: s for s in tr.spans()}
        mark = spans["overflow"]
        assert mark.kind == "instant"
        assert mark.duration_us == 0.0
        assert mark.parent_id == spans["step"].span_id
        assert mark.args["scale"] == 1024.0
