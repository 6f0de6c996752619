"""Functional MPI substrate."""
import numpy as np
import pytest

from repro.comm import World
from repro.errors import (DeadlockError, MessageDropped, RankError,
                          RankFailure)
from repro.resilience import FaultInjector, FaultPlan, FaultSpec


class TestPointToPoint:
    def test_send_recv(self):
        w = World(2)
        w.send(np.arange(3), 0, 1)
        out = w.recv(1, 0)
        np.testing.assert_array_equal(out, [0, 1, 2])

    def test_fifo_order_per_channel(self):
        w = World(2)
        w.send("a", 0, 1)
        w.send("b", 0, 1)
        assert w.recv(1, 0) == "a"
        assert w.recv(1, 0) == "b"

    def test_tags_separate_channels(self):
        w = World(2)
        w.send("x", 0, 1, tag=1)
        w.send("y", 0, 1, tag=2)
        assert w.recv(1, 0, tag=2) == "y"
        assert w.recv(1, 0, tag=1) == "x"

    def test_recv_without_message_is_deadlock(self):
        w = World(2)
        with pytest.raises(LookupError, match="deadlock"):
            w.recv(1, 0)

    def test_payload_copied_on_send(self):
        w = World(2)
        data = np.zeros(3)
        w.send(data, 0, 1)
        data[:] = 99
        np.testing.assert_array_equal(w.recv(1, 0), [0, 0, 0])

    def test_rank_validation(self):
        w = World(2)
        with pytest.raises(ValueError):
            w.send(1, 0, 5)
        with pytest.raises(ValueError):
            w.recv(2, 0)

    def test_world_size_validation(self):
        with pytest.raises(ValueError):
            World(0)

    def test_pending_count(self):
        w = World(2)
        assert w.pending(1, 0) == 0
        w.send(1, 0, 1)
        assert w.pending(1, 0) == 1


class TestTrafficStats:
    def test_message_and_byte_accounting(self):
        w = World(3)
        w.send(np.zeros(10, dtype=np.float32), 0, 1)
        w.send(np.zeros(5, dtype=np.float64), 1, 2)
        assert w.stats.total_messages == 2
        assert w.stats.total_bytes == 40 + 40
        assert w.stats.sent_messages[0] == 1
        w.recv(1, 0)
        assert w.stats.recv_messages[1] == 1

    def test_control_message_nominal_size(self):
        w = World(2)
        w.send({"ready": True}, 0, 1)
        assert w.stats.total_bytes == 64

    def test_reset(self):
        w = World(2)
        w.send(1, 0, 1)
        w.stats.reset()
        assert w.stats.total_messages == 0


class TestErrorPaths:
    def test_send_rank_out_of_range(self):
        w = World(3)
        with pytest.raises(RankError, match="out of range"):
            w.send(1, 0, 3)
        with pytest.raises(RankError):
            w.send(1, -1, 0)

    def test_recv_rank_out_of_range(self):
        w = World(3)
        with pytest.raises(RankError):
            w.recv(3, 0)
        with pytest.raises(RankError):
            w.recv(0, -2)

    def test_rank_error_is_still_value_error(self):
        w = World(2)
        with pytest.raises(ValueError):
            w.send(1, 0, 9)

    def test_recv_on_empty_queue_is_deadlock_error(self):
        w = World(2)
        with pytest.raises(DeadlockError, match="deadlock"):
            w.recv(1, 0)

    def test_recv_wrong_tag_is_deadlock_error(self):
        w = World(2)
        w.send("x", 0, 1, tag=1)
        with pytest.raises(DeadlockError):
            w.recv(1, 0, tag=2)

    def test_failed_rank_poisons_send_and_recv(self):
        w = World(3)
        w.send("pre", 0, 2)
        w.fail_rank(2)
        with pytest.raises(RankFailure) as info:
            w.send("post", 0, 2)
        assert info.value.rank == 2
        with pytest.raises(RankFailure):
            w.recv(2, 0)
        assert w.failed_ranks == frozenset({2})
        assert w.alive_ranks() == [0, 1]

    def test_drain_discards_pending(self):
        w = World(2)
        w.send("a", 0, 1)
        w.send("b", 0, 1, tag=5)
        assert w.drain() == 2
        assert w.pending(1, 0) == 0


def _drop_world(count=1, step=0, prob=None, seed=0, size=2):
    plan = FaultPlan([FaultSpec("drop_msg", step=step, count=count,
                                prob=prob)], seed=seed)
    injector = FaultInjector(plan)
    injector.begin_step(step)
    return World(size, fault_injector=injector), injector


class TestFaultHooks:
    def test_dropped_message_raises_at_receiver(self):
        w, injector = _drop_world()
        w.send("lost", 0, 1)
        with pytest.raises(MessageDropped) as info:
            w.recv(1, 0)
        assert (info.value.src, info.value.dst) == (0, 1)
        assert injector.counts["drop_msg"] == 1
        assert w.stats.total_dropped == 1

    def test_drop_budget_exhausts(self):
        w, _ = _drop_world(count=1)
        w.send("lost", 0, 1)
        w.send("kept", 0, 1)
        with pytest.raises(MessageDropped):
            w.recv(1, 0)
        assert w.recv(1, 0) == "kept"

    def test_recv_reliable_resends_after_drop(self):
        w, _ = _drop_world(count=1)
        w.send("payload", 0, 1)
        out = w.recv_reliable(1, 0, resend=lambda: "payload")
        assert out == "payload"

    def test_duplicate_is_deduplicated_on_receive(self):
        plan = FaultPlan([FaultSpec("dup_msg", step=0, count=1)])
        injector = FaultInjector(plan)
        injector.begin_step(0)
        w = World(2, fault_injector=injector)
        w.send("once", 0, 1)
        w.send("two", 0, 1)
        assert w.recv(1, 0) == "once"
        assert w.recv(1, 0) == "two"     # the retransmission was skipped
        with pytest.raises(DeadlockError):
            w.recv(1, 0)
        assert w.stats.total_duplicated == 1

    def test_probabilistic_drops_deterministic_under_seed(self):
        def decisions(seed):
            w, _ = _drop_world(count=3, prob=0.5, seed=seed)
            out = []
            for i in range(10):
                w.send(i, 0, 1)
                try:
                    out.append(w.recv(1, 0))
                except MessageDropped:
                    out.append("drop")
            return out

        assert decisions(7) == decisions(7)
        assert decisions(7) != decisions(8)  # seed actually matters
        assert decisions(7).count("drop") == 3

    def test_faults_arm_only_at_their_step(self):
        plan = FaultPlan([FaultSpec("drop_msg", step=2)])
        injector = FaultInjector(plan)
        w = World(2, fault_injector=injector)
        injector.begin_step(0)
        w.send("safe", 0, 1)
        assert w.recv(1, 0) == "safe"
        injector.begin_step(2)
        w.send("lost", 0, 1)
        with pytest.raises(MessageDropped):
            w.recv(1, 0)

    def test_uninjected_world_unaffected(self):
        w = World(2)
        w.send("x", 0, 1)
        assert w.recv(1, 0) == "x"
        assert w.stats.total_dropped == 0


class TestReferenceCollectives:
    def test_gather(self):
        w = World(4)
        out = w.gather([10, 11, 12, 13], root=0)
        assert out == [10, 11, 12, 13]
        assert w.stats.recv_messages[0] == 3

    def test_broadcast(self):
        w = World(4)
        out = w.broadcast("hello", root=0)
        assert out == ["hello"] * 4

    def test_gather_needs_all_values(self):
        w = World(3)
        with pytest.raises(ValueError):
            w.gather([1, 2], root=0)


class TestCollectiveChecks:
    def test_agreed_round_completes(self):
        w = World(3)
        for r in range(3):
            w.announce_collective(r, "allreduce", 7, (4,), "float32")
        assert w.collective_rounds == 1

    def test_disagreeing_signature_raises_at_call_site(self):
        from repro.errors import CollectiveMismatch

        w = World(2)
        w.announce_collective(0, "allreduce", 7, (4,), "float32")
        with pytest.raises(CollectiveMismatch, match="disagreement"):
            w.announce_collective(1, "allreduce", 7, (8,), "float32")

    def test_divergent_schedule_raises(self):
        from repro.errors import CollectiveMismatch

        w = World(2)
        w.announce_collective(0, "allreduce", 7)
        with pytest.raises(CollectiveMismatch, match="divergent"):
            w.announce_collective(0, "broadcast", 8)

    def test_failed_rank_excluded_from_round(self):
        w = World(3)
        w.fail_rank(2)
        w.announce_collective(0, "allreduce", 7)
        w.announce_collective(1, "allreduce", 7)
        assert w.collective_rounds == 1

    def test_reference_collectives_announce(self):
        w = World(2)
        w.broadcast("hello", root=0)
        w.gather(["a", "b"], root=0)
        assert w.collective_rounds == 2

    def test_allreduce_facade_announces(self):
        from repro.comm import allreduce

        w = World(2)
        bufs = [np.ones(4, dtype=np.float32) for _ in range(2)]
        allreduce(w, bufs, strategy="ring")
        assert w.collective_rounds >= 1

    def test_mismatch_is_a_comm_error(self):
        from repro.errors import CollectiveMismatch, CommError

        assert issubclass(CollectiveMismatch, CommError)
