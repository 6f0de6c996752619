"""Cross-rank trace analyzer: links, attribution, stragglers.

The attribution tests build spans with *known* intervals via
``Tracer.emit`` on a simulated clock, so every phase total is exact; the
end-to-end tests run real :class:`repro.comm.simmpi.World` traffic under an
active session.  The breakdown cross-validation pins the acceptance
criterion: analyzer phase totals agree with ``perf.breakdown`` within 1%.
"""
import pytest

from repro.comm import World
from repro.errors import MessageDropped
from repro.perf.breakdown import kernel_breakdown
from repro.resilience import FaultInjector, FaultPlan, FaultSpec
from repro.telemetry import (CrossRankTrace, SimulatedClock, Telemetry,
                             activate)
from repro.telemetry.distributed import PHASE_OF_CATEGORY


def sim_tel():
    return Telemetry(clock=SimulatedClock())


class TestMessageLinks:
    def test_simmpi_sends_match_recvs(self):
        tel = sim_tel()
        with activate(tel):
            w = World(3)
            for dst in (1, 2):
                w.send(b"x", src=0, dst=dst)
            assert w.recv(dst=1, src=0) == b"x"
            assert w.recv(dst=2, src=0) == b"x"
        cross = CrossRankTrace(tel.tracer.spans())
        assert len(cross.links) == 2
        assert len(cross.matched()) == 2
        assert cross.unmatched() == []
        for link in cross.matched():
            assert link.send.args["msg_edge"] == "send"
            assert link.recv.args["msg_edge"] == "recv"
            assert link.send.lane == 0          # sender rank lane
            assert link.recv.lane in (1, 2)     # receiver rank lane

    def test_in_flight_send_is_unmatched(self):
        tel = sim_tel()
        with activate(tel):
            w = World(2)
            w.send(b"x", src=0, dst=1)          # never received
        cross = CrossRankTrace(tel.tracer.spans())
        (link,) = cross.unmatched()
        assert link.send is not None and link.recv is None

    def test_dropped_message_recorded_as_drop_edge(self):
        plan = FaultPlan((FaultSpec(kind="drop_msg", step=0),))
        injector = FaultInjector(plan)
        injector.begin_step(0)
        tel = sim_tel()
        with activate(tel):
            w = World(2, fault_injector=injector)
            w.send(b"x", src=0, dst=1)
            with pytest.raises(MessageDropped):
                w.recv(dst=1, src=0)
        cross = CrossRankTrace(tel.tracer.spans())
        (link,) = cross.links.values()
        assert link.dropped and link.matched
        assert tel.metrics.counter("comm.dropped_messages").value == 1

    def test_untraced_wire_unchanged(self):
        w = World(2)                            # no active session
        w.send(b"x", src=0, dst=1)
        assert w.recv(dst=1, src=0) == b"x"
        assert w.stats.sent_messages[0] == 1    # exact accounting holds


def emit_step(tracer, step, t0):
    """One synthetic step with known attribution, offset to start at t0.

    Envelope [t0, t0+10]: trainer [0,6], comm [4,7], io [7,8],
    resilience [8,10] (claims nothing) -> compute 4, comm 3, io 1, stall 2.
    """
    tracer.emit("compute", t0 + 0.0, 6.0, category="trainer", lane=0,
                step=step, rank=0)
    tracer.emit("exchange", t0 + 4.0, 3.0, category="comm", lane=0,
                step=step)
    tracer.emit("read", t0 + 7.0, 1.0, category="io", lane=0, step=step)
    tracer.emit("recovery", t0 + 8.0, 2.0, category="resilience", lane=0,
                step=step)


class TestStepAttribution:
    def test_phases_partition_the_envelope_exactly(self):
        tel = sim_tel()
        emit_step(tel.tracer, step=0, t0=0.0)
        (b,) = CrossRankTrace(tel.tracer.spans()).step_breakdowns()
        assert b.compute_s == pytest.approx(4.0)
        assert b.comm_s == pytest.approx(3.0)
        assert b.io_s == pytest.approx(1.0)
        assert b.stall_s == pytest.approx(2.0)
        assert (b.compute_s + b.comm_s + b.io_s + b.stall_s
                == pytest.approx(b.total_s))

    def test_overlap_priority_comm_over_io_over_compute(self):
        tel = sim_tel()
        # Three fully-overlapping spans [0, 4]: comm wins the whole window.
        tel.tracer.emit("c", 0.0, 4.0, category="trainer", lane=0, step=0)
        tel.tracer.emit("x", 0.0, 4.0, category="comm", lane=0, step=0)
        tel.tracer.emit("r", 0.0, 4.0, category="io", lane=0, step=0)
        (b,) = CrossRankTrace(tel.tracer.spans()).step_breakdowns()
        assert b.comm_s == pytest.approx(4.0)
        assert b.io_s == 0.0 and b.compute_s == 0.0 and b.stall_s == 0.0

    def test_unstepped_span_falls_into_containing_envelope(self):
        tel = sim_tel()
        emit_step(tel.tracer, step=0, t0=0.0)
        emit_step(tel.tracer, step=1, t0=20.0)
        tel.tracer.emit("helper", 21.0, 1.0, category="io", lane=2)  # no step
        groups = CrossRankTrace(tel.tracer.spans()).step_spans()
        assert any(s.name == "helper" for s in groups[1])
        assert not any(s.name == "helper" for s in groups[0])

    def test_straggler_is_argmax_of_per_rank_time(self):
        tel = sim_tel()
        for rank in range(4):
            dur = 8.0 if rank == 2 else 2.0
            tel.tracer.emit("compute", 0.0, dur, category="trainer",
                            lane=rank, step=0, rank=rank)
        cross = CrossRankTrace(tel.tracer.spans())
        (b,) = cross.step_breakdowns()
        assert b.straggler_rank == 2
        assert b.per_rank_s[2] == pytest.approx(8.0)
        assert cross.straggler_counts() == {2: 1}

    def test_summarize_gives_median_and_central_68(self):
        tel = sim_tel()
        for step in range(5):
            emit_step(tel.tracer, step=step, t0=step * 20.0)
        summary = CrossRankTrace(tel.tracer.spans()).summarize()
        assert set(summary) == {"compute", "comm", "io", "stall"}
        assert summary["compute"].median == pytest.approx(4.0)
        assert summary["comm"].median == pytest.approx(3.0)
        assert summary["stall"].median == pytest.approx(2.0)

    def test_empty_trace_summarizes_to_zeros(self):
        summary = CrossRankTrace([]).summarize()
        assert summary["compute"].median == 0.0


class TestBreakdownCrossValidation:
    """Acceptance gate: analyzer agrees with perf.breakdown within 1%."""

    PHASE_OF_KERNEL = {"allreduce": "comm", "copy": "io", "idle": None}

    @pytest.mark.parametrize("network,precision",
                             [("tiramisu", "fp16"), ("tiramisu", "fp32")])
    def test_phase_totals_match_kernel_breakdown(self, network, precision):
        table = kernel_breakdown(network, precision)
        # Lay the table's kernel categories end-to-end as one step's spans:
        # compute-class rows -> trainer, allreduce -> comm, copy -> io, and
        # idle becomes a gap (no span), which must surface as stall.
        tel = sim_tel()
        expected = {"compute": 0.0, "comm": 0.0, "io": 0.0, "stall": 0.0}
        t = 0.0
        for row in table.rows:
            phase = self.PHASE_OF_KERNEL.get(row.category, "compute")
            if phase is not None:
                category = {"compute": "trainer", "comm": "comm",
                            "io": "io"}[phase]
                tel.tracer.emit(row.category, t, row.time_s,
                                category=category, lane=0, step=0)
                expected[phase] += row.time_s
            else:
                expected["stall"] += row.time_s
            t += row.time_s
        # Close the envelope at the true step end so trailing idle counts.
        tel.tracer.emit("step_end", t, 0.0, category="trainer", lane=0,
                        step=0)
        (b,) = CrossRankTrace(tel.tracer.spans()).step_breakdowns()
        assert b.total_s == pytest.approx(table.total_time_s, rel=1e-6)
        for phase, want in expected.items():
            got = b.phase_seconds()[phase]
            assert got == pytest.approx(want, rel=0.01, abs=1e-6), phase

    def test_phase_map_covers_trainer_serve_comm_io(self):
        assert PHASE_OF_CATEGORY["trainer"] == "compute"
        assert PHASE_OF_CATEGORY["comm"] == "comm"
        assert PHASE_OF_CATEGORY["io"] == "io"
        assert "resilience" not in PHASE_OF_CATEGORY
