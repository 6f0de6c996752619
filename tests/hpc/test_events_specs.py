"""Discrete-event engine and machine specs."""
import pytest

from repro.hpc import (
    P100,
    PIZ_DAINT,
    SUMMIT,
    V100,
    EventQueue,
)


class TestEventQueue:
    def test_processes_in_time_order(self):
        ev = EventQueue()
        log = []
        ev.schedule(3.0, lambda: log.append("c"))
        ev.schedule(1.0, lambda: log.append("a"))
        ev.schedule(2.0, lambda: log.append("b"))
        ev.run()
        assert log == ["a", "b", "c"]

    def test_ties_break_by_insertion(self):
        ev = EventQueue()
        log = []
        ev.schedule(1.0, lambda: log.append(1))
        ev.schedule(1.0, lambda: log.append(2))
        ev.run()
        assert log == [1, 2]

    def test_nested_scheduling(self):
        ev = EventQueue()
        log = []

        def first():
            log.append(("first", ev.now))
            ev.schedule(2.0, lambda: log.append(("second", ev.now)))

        ev.schedule(1.0, first)
        ev.run()
        assert log == [("first", 1.0), ("second", 3.0)]

    def test_run_until(self):
        ev = EventQueue()
        log = []
        ev.schedule(1.0, lambda: log.append(1))
        ev.schedule(5.0, lambda: log.append(5))
        ev.run(until=2.0)
        assert log == [1]
        assert ev.now == 2.0
        assert ev.pending == 1

    def test_max_events(self):
        ev = EventQueue()
        for i in range(10):
            ev.schedule(i + 1.0, lambda: None)
        ev.run(max_events=3)
        assert ev.processed == 3

    def test_negative_delay_raises(self):
        with pytest.raises(ValueError):
            EventQueue().schedule(-1.0, lambda: None)

    def test_schedule_at_past_raises(self):
        ev = EventQueue()
        ev.schedule(2.0, lambda: None)
        ev.run()
        with pytest.raises(ValueError):
            ev.schedule_at(1.0, lambda: None)


class TestRunBoundary:
    """Pin run(until=..., max_events=...) edge semantics.

    The campaign service tiles time with back-to-back run(until=...)
    windows; these invariants are what make that safe.
    """

    def test_event_exactly_at_until_is_processed(self):
        ev = EventQueue()
        log = []
        ev.schedule(2.0, lambda: log.append("edge"))
        ev.run(until=2.0)
        assert log == ["edge"]
        assert ev.pending == 0

    def test_zero_delay_at_until_processed_same_run(self):
        # A callback firing at `until` that schedules follow-up work at
        # zero delay must see that work happen inside the same window.
        ev = EventQueue()
        log = []

        def outer():
            log.append("outer")
            ev.schedule(0.0, lambda: log.append("inner"))

        ev.schedule(2.0, outer)
        ev.run(until=2.0)
        assert log == ["outer", "inner"]

    def test_clock_lands_on_until_without_events(self):
        ev = EventQueue()
        ev.schedule(10.0, lambda: None)
        assert ev.run(until=4.0) == 4.0
        assert ev.run(until=8.0) == 8.0
        # Windows tile: the pending event is untouched until its time.
        assert ev.pending == 1
        assert ev.run(until=12.0) == 12.0
        assert ev.pending == 0

    def test_max_events_stop_does_not_jump_clock(self):
        # Stopping early on max_events must NOT advance the clock to
        # `until`: events at or before `until` are still pending, and a
        # clock past them would make the next run move time backwards.
        ev = EventQueue()
        times = []
        for t in (1.0, 2.0, 3.0):
            ev.schedule(t, lambda: times.append(ev.now))
        now = ev.run(until=5.0, max_events=2)
        assert times == [1.0, 2.0]
        assert now == 2.0 and ev.now == 2.0
        assert ev.pending == 1
        # Resuming processes the leftover event at its original time.
        assert ev.run(until=5.0) == 5.0
        assert times == [1.0, 2.0, 3.0]

    def test_max_events_counts_lifetime_not_per_run(self):
        ev = EventQueue()
        for t in (1.0, 2.0, 3.0):
            ev.schedule(t, lambda: None)
        ev.run(max_events=2)
        ev.run(max_events=2)   # budget already exhausted: no-op
        assert ev.processed == 2
        ev.run(max_events=3)
        assert ev.processed == 3


class TestGpuSpecs:
    def test_v100_paper_peaks(self):
        # "each Volta GPU can perform 125 trillion floating-point operations
        # per second" (FP16 Tensor Cores); FP32 is 15.7 TF/s.
        assert V100.fp16_peak == 125e12
        assert V100.fp32_peak == 15.7e12
        assert V100.peak("fp16") == 125e12

    def test_summit_node_peak_750tf(self):
        assert SUMMIT.node.gpus * V100.fp16_peak == 750e12

    def test_summit_full_system(self):
        # 4608 nodes x 6 GPUs = 27648; the paper ran on 4560 nodes = 27360.
        assert SUMMIT.total_gpus == 27648
        assert 27360 * SUMMIT.node.gpu.peak("fp16") == pytest.approx(3.42e18)

    def test_piz_daint_single_precision_peak(self):
        # "peak single-precision ... performance of the machine is 50.6 PF/s"
        assert PIZ_DAINT.total_gpus * PIZ_DAINT.node.gpu.peak("fp32") == \
            pytest.approx(50.6e15, rel=0.01)

    def test_unknown_precision_raises(self):
        with pytest.raises(ValueError):
            V100.peak("int8")

    def test_p100_memory(self):
        assert P100.mem_bandwidth == 732e9
        assert P100.mem_bytes == 16e9

    def test_filesystem_specs(self):
        assert PIZ_DAINT.filesystem.peak_read_bandwidth == 744e9
        assert PIZ_DAINT.filesystem.effective_read_bandwidth == 112e9
        assert SUMMIT.filesystem.capacity_bytes == 3.0e15

    def test_summit_virtual_ib_devices(self):
        # Dual-rail ConnectX-5 virtualized as 4 devices (Section V-A3).
        assert SUMMIT.node.virtual_network_devices == 4

    def test_measured_read_bandwidths(self):
        # Section V-A1: 1.79 GB/s (1 thread) -> 11.98 GB/s (8 threads).
        assert SUMMIT.node.fs_read_bw_single_thread == 1.79e9
        assert SUMMIT.node.fs_read_bw_multi_thread == 11.98e9
