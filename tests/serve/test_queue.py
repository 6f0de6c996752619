"""The request queue: admission control, priority lanes, batch triggers."""
import numpy as np
import pytest

from repro.serve import InferenceRequest, RequestQueue, ServeConfig


def request(rid, lane="interactive", arrival=0.0):
    # 16x16 cut into 8x8 windows at stride 4: 3 x 3 = 9 windows.
    image = np.zeros((1, 16, 16), np.float32)
    return InferenceRequest(rid, image, lane=lane, arrival_s=arrival)


def serve_config(max_depth=4, slo_s=(), max_batch_size=8, max_wait_s=0.002,
                 num_replicas=1):
    return ServeConfig(window_hw=(8, 8), stride_hw=(4, 4),
                       num_replicas=num_replicas, max_depth=max_depth,
                       slo_s=slo_s, max_batch_size=max_batch_size,
                       max_wait_s=max_wait_s)


def make_queue(max_depth=4, slo_s=(), max_batch_size=8, max_wait_s=0.002,
               num_replicas=1):
    return RequestQueue(serve_config(
        max_depth=max_depth, slo_s=slo_s, max_batch_size=max_batch_size,
        max_wait_s=max_wait_s, num_replicas=num_replicas))


class TestAdmissionConfig:
    # Every input the queue's knobs must refuse, checked once
    # by ServeConfig.  The lane layout is not a field, so a lane list
    # cannot be passed at all.
    @pytest.mark.parametrize("kwargs, error", [
        (dict(lanes=()), TypeError),
        (dict(lanes=("a", "a")), TypeError),
        (dict(max_depth=0), ValueError),
        (dict(slo_s=(("nope", 0.1),)), ValueError),
        (dict(slo_s=(("interactive", 0.0),)), ValueError),
        (dict(slo_s=(("interactive", -1.0),)), ValueError),
        (dict(max_batch_size=0), ValueError),
        (dict(max_wait_s=-1.0), ValueError),
    ], ids=["empty-lanes", "duplicate-lanes", "depth-0", "slo-unknown-lane",
            "slo-zero", "slo-negative", "batch-0", "negative-wait"])
    def test_rejects(self, kwargs, error):
        with pytest.raises(error):
            ServeConfig(**kwargs)

    def test_lanes_fixed_and_readable(self):
        assert ServeConfig().lanes == ("interactive", "bulk")

    def test_slo_for(self):
        cfg = ServeConfig(slo_s=(("interactive", 0.05),))
        assert cfg.slo_for("interactive") == 0.05
        assert cfg.slo_for("bulk") is None

    def test_rejects_repeated_slo_lane(self):
        # slo_for would read the first entry, the fleet's dict the last.
        with pytest.raises(ValueError, match="given twice"):
            ServeConfig(slo_s=(("interactive", 0.1), ("interactive", 0.2)))


class TestBackpressure:
    def test_depth_cap_sheds_queue_full(self):
        queue = make_queue(max_depth=2)
        assert queue.offer(request(0), 0.0) == (True, None)
        assert queue.offer(request(1), 0.0) == (True, None)
        admitted, reason = queue.offer(request(2), 0.0)
        assert not admitted and reason == "queue_full"
        assert queue.depth() == 2

    def test_caps_are_per_lane(self):
        queue = make_queue(max_depth=1)
        assert queue.offer(request(0, "interactive"), 0.0)[0]
        assert queue.offer(request(1, "bulk"), 0.0)[0]
        assert not queue.offer(request(2, "interactive"), 0.0)[0]

    def test_unknown_lane_rejected(self):
        queue = make_queue()
        with pytest.raises(ValueError, match="unknown lane"):
            queue.offer(request(0, lane="vip"), 0.0)


class TestSloShedding:
    def test_sheds_when_estimated_wait_exceeds_slo(self):
        queue = make_queue(
            max_depth=64, slo_s=(("interactive", 0.01),))
        queue.observe_service(0.005)       # 5 ms per window
        assert queue.offer(request(0), 0.0)[0]  # empty queue: no wait
        # 9 queued windows * 5 ms = 45 ms estimated wait > 10 ms SLO.
        admitted, reason = queue.offer(request(1), 0.0)
        assert not admitted and reason == "slo"

    def test_queued_windows_count_each_requests_tiles(self):
        queue = make_queue(max_depth=8)
        small = InferenceRequest(9, np.zeros((1, 8, 8), np.float32))
        queue.offer(request(0), 0.0)
        queue.offer(small, 0.0)                 # one 8x8 window
        queue.offer(request(1, "bulk"), 0.0)
        assert queue.queued_windows == 9 + 1 + 9
        queue.pop(2)
        assert queue.queued_windows == 9
        queue.drain()
        assert queue.queued_windows == 0

    def test_no_shedding_before_first_observation(self):
        queue = make_queue(slo_s=(("interactive", 1e-9),))
        for rid in range(3):
            assert queue.offer(request(rid), 0.0)[0]

    def test_lane_without_slo_only_depth_gated(self):
        queue = make_queue(
            max_depth=64, slo_s=(("interactive", 0.01),))
        queue.observe_service(0.005)
        queue.offer(request(0), 0.0)
        assert queue.offer(request(1, lane="bulk"), 0.0)[0]

    def test_ewma_converges(self):
        queue = make_queue(max_depth=8, num_replicas=2)
        for _ in range(100):
            queue.observe_service(0.004)
        assert queue.ewma_window_s == pytest.approx(0.004, rel=1e-3)
        # 10 queued windows; two replicas halve the estimated wait.
        queue.offer(request(0), 0.0)
        queue.offer(InferenceRequest(1, np.zeros((1, 8, 8), np.float32)),
                    0.0)
        assert queue.queued_windows == 10
        assert queue.estimated_wait_s() == pytest.approx(0.02, rel=1e-3)


class TestPriorityOrdering:
    def test_pop_drains_interactive_before_bulk(self):
        queue = make_queue(max_depth=8)
        queue.offer(request(0, "bulk"), 0.0)
        queue.offer(request(1, "interactive"), 0.0)
        queue.offer(request(2, "bulk"), 0.0)
        queue.offer(request(3, "interactive"), 0.0)
        batch = queue.pop(3)
        assert [r.request_id for r in batch] == [1, 3, 0]

    def test_fifo_within_lane(self):
        queue = make_queue(max_depth=8)
        for rid in range(4):
            queue.offer(request(rid), float(rid))
        assert [r.request_id for r in queue.pop(10)] == [0, 1, 2, 3]

    def test_drain_empties(self):
        queue = make_queue(max_depth=8)
        for rid in range(3):
            queue.offer(request(rid), 0.0)
        assert len(queue.drain()) == 3
        assert queue.depth() == 0


class TestMicroBatcher:
    """The queue's batch triggers: size, age, and the batch cap."""

    def test_not_ready_when_empty(self):
        queue = make_queue(max_batch_size=4)
        assert not queue.ready(0.0)
        assert queue.deadline_s is None

    def test_size_trigger(self):
        queue = make_queue(max_batch_size=2, max_wait_s=10.0)
        queue.offer(request(0), 0.0)
        assert not queue.ready(0.0)             # under size, under age
        queue.offer(request(1), 0.0)
        assert queue.ready(0.0)                 # size trigger, age ignored
        assert len(queue.take(0.0)) == 2
        assert queue.batches_formed == 1

    def test_age_trigger(self):
        queue = make_queue(max_depth=8, max_wait_s=0.002)
        queue.offer(request(0), 0.0)
        assert queue.deadline_s == pytest.approx(0.002)
        assert not queue.ready(0.0015)
        assert queue.ready(0.002)
        assert len(queue.take(0.002)) == 1
        assert queue.deadline_s is None

    def test_deadline_follows_the_oldest_waiting_request(self):
        queue = make_queue(max_depth=8, max_batch_size=1, max_wait_s=0.002)
        queue.offer(request(0, "bulk"), 1.0)
        queue.offer(request(1, "interactive"), 2.0)
        assert queue.deadline_s == 1.0 + 0.002
        # The interactive head leaves first; the older bulk head still
        # sets the deadline.
        assert [r.request_id for r in queue.take(2.0)] == [1]
        assert queue.deadline_s == 1.0 + 0.002
        queue.offer(request(2, "interactive"), 3.0)
        assert [r.request_id for r in queue.take(3.0)] == [2]
        assert [r.request_id for r in queue.take(3.0)] == [0]
        assert queue.deadline_s is None

    def test_age_trigger_fires_at_its_own_deadline(self):
        # (2.5 + 0.002) - 2.5 rounds to 0.00199999...: an age test on the
        # difference would never fire at the instant the loop advances to.
        t, wait = 2.5, 0.002
        assert (t + wait) - t < wait
        queue = make_queue(max_depth=8, max_wait_s=wait)
        queue.offer(request(0), t)
        assert not queue.ready(t)
        assert queue.ready(queue.deadline_s)

    def test_take_caps_at_max_batch_size(self):
        queue = make_queue(max_depth=8, max_batch_size=3, max_wait_s=0.0)
        for rid in range(5):
            queue.offer(request(rid), 0.0)
        assert len(queue.take(0.0)) == 3
        assert queue.depth() == 2
