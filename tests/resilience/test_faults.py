"""Fault plans, the runtime injector, and the retry machinery."""
import numpy as np
import pytest

from repro.errors import FaultInjected, ReadFault
from repro.hpc.events import EventQueue
from repro.resilience import (FAULT_KINDS, FaultInjector, FaultPlan,
                              FaultSpec, RetriesExhausted, RetryPolicy,
                              RetryState, with_retries)


class TestFaultSpec:
    def test_kind_validated(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("meteor_strike")

    def test_rank_fail_needs_rank(self):
        with pytest.raises(ValueError, match="rank"):
            FaultSpec("rank_fail", step=3)

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            FaultSpec("read_fault", step=-1)
        with pytest.raises(ValueError):
            FaultSpec("read_fault", count=0)
        with pytest.raises(ValueError):
            FaultSpec("slow_read", factor=0.0)
        with pytest.raises(ValueError):
            FaultSpec("drop_msg", prob=1.5)


class TestFaultPlanParse:
    def test_parse_full_syntax(self):
        plan = FaultPlan.parse(
            "rank_fail@3:rank=1;read_fault@1;drop_msg@2:count=2,prob=0.5",
            seed=9)
        assert len(plan) == 3
        assert plan.seed == 9
        rf, rd, dm = plan.specs
        assert (rf.kind, rf.step, rf.rank) == ("rank_fail", 3, 1)
        assert (rd.kind, rd.step, rd.count) == ("read_fault", 1, 1)
        assert (dm.kind, dm.count, dm.prob) == ("drop_msg", 2, 0.5)

    def test_parse_roundtrips_through_describe(self):
        text = "rank_fail@3:rank=1;drop_msg@2:count=2,prob=0.5;read_fault@1"
        plan = FaultPlan.parse(text)
        assert FaultPlan.parse(plan.describe()).describe() == plan.describe()

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("read_fault@0:volume=11")
        with pytest.raises(ValueError, match="malformed"):
            FaultPlan.parse("read_fault@0:count")

    def test_empty_plan(self):
        plan = FaultPlan.parse("  ;  ")
        assert len(plan) == 0
        assert plan.describe() == ""

    def test_of_kind(self):
        plan = FaultPlan.parse("read_fault@0;read_fault@2;drop_msg@1")
        assert len(plan.of_kind("read_fault")) == 2
        assert len(plan.of_kind("straggler")) == 0


class TestInjector:
    def test_rank_failures_arm_at_step(self):
        plan = FaultPlan([FaultSpec("rank_fail", step=2, rank=1)])
        inj = FaultInjector(plan)
        assert inj.begin_step(0) == []
        assert inj.begin_step(2) == [1]
        assert inj.failed_ranks == frozenset({1})
        assert inj.counts["rank_fail"] == 1

    def test_read_fault_exhausts_after_count(self):
        plan = FaultPlan([FaultSpec("read_fault", step=0, count=2)])
        inj = FaultInjector(plan)
        inj.begin_step(0)
        for _ in range(2):
            with pytest.raises(ReadFault):
                inj.check_read("/data/a")
        assert inj.check_read("/data/a") == 1.0  # budget spent: retry succeeds

    def test_read_fault_path_filter(self):
        plan = FaultPlan([FaultSpec("read_fault", step=0, path="victim")])
        inj = FaultInjector(plan)
        inj.begin_step(0)
        assert inj.check_read("/data/innocent") == 1.0
        with pytest.raises(ReadFault) as info:
            inj.check_read("/data/victim-3")
        assert info.value.path == "/data/victim-3"

    def test_read_fault_is_fault_injected_and_oserror(self):
        plan = FaultPlan([FaultSpec("read_fault", step=0)])
        inj = FaultInjector(plan)
        inj.begin_step(0)
        with pytest.raises(FaultInjected):
            inj.check_read("x")
        inj2 = FaultInjector(plan)
        inj2.begin_step(0)
        with pytest.raises(OSError):
            inj2.check_read("x")

    def test_slow_read_returns_factor(self):
        plan = FaultPlan([FaultSpec("slow_read", step=0, factor=3.0)])
        inj = FaultInjector(plan)
        inj.begin_step(0)
        assert inj.check_read("a") == 3.0
        assert inj.check_read("a") == 1.0

    def test_straggler_perturbs_event_queue(self):
        plan = FaultPlan([FaultSpec("straggler", step=0, rank=1, factor=4.0)])
        inj = FaultInjector(plan)
        inj.begin_step(0)
        q = EventQueue(fault_injector=inj)
        fired = []
        q.schedule(1.0, lambda: fired.append("fast"), rank=0)
        q.schedule(1.0, lambda: fired.append("slow"), rank=1)
        q.run()
        assert fired == ["fast", "slow"]
        assert q.now == pytest.approx(4.0)
        assert inj.counts["straggler"] == 1

    def test_counts_and_total(self):
        plan = FaultPlan([FaultSpec("read_fault", step=0, count=2),
                          FaultSpec("slow_read", step=0)])
        inj = FaultInjector(plan)
        inj.begin_step(0)
        for _ in range(2):
            with pytest.raises(ReadFault):
                inj.check_read("a")
        inj.check_read("a")
        assert inj.counts["read_fault"] == 2
        assert inj.counts["slow_read"] == 1
        assert sum(inj.counts.values()) == 3
        assert set(inj.counts) == set(FAULT_KINDS)

    def test_deterministic_replay(self):
        def run(seed):
            plan = FaultPlan([FaultSpec("drop_msg", step=0, count=4,
                                        prob=0.3)], seed=seed)
            inj = FaultInjector(plan)
            inj.begin_step(0)
            return [inj.message_action(0, 1, 0) for _ in range(30)]

        assert run(5) == run(5)
        assert run(5) != run(6)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)

    def test_backoff_schedule_exponential_and_capped(self):
        p = RetryPolicy(max_attempts=5, backoff_base_s=0.1,
                        max_backoff_s=0.3, jitter=0.0)
        assert p.delays() == pytest.approx([0.1, 0.2, 0.3, 0.3])

    def test_jitter_seeded(self):
        p = RetryPolicy(max_attempts=4, jitter=0.5, seed=3)
        assert p.delays() == p.delays()
        assert p.delays() != RetryPolicy(max_attempts=4, jitter=0.5,
                                         seed=4).delays()


class TestWithRetries:
    def test_succeeds_after_transient_failures(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise OSError("transient")
            return "ok"

        state = RetryState()
        out = with_retries(flaky, RetryPolicy(max_attempts=3), state=state)
        assert out == "ok"
        assert state.attempts == 3 and state.retries == 2
        assert len(state.errors) == 2

    def test_exhaustion_raises_with_cause(self):
        def broken():
            raise OSError("permanent")

        with pytest.raises(RetriesExhausted) as info:
            with_retries(broken, RetryPolicy(max_attempts=2))
        assert info.value.attempts == 2
        assert isinstance(info.value.last, OSError)
        assert isinstance(info.value.__cause__, OSError)

    def test_non_retryable_propagates_immediately(self):
        calls = []

        def typo():
            calls.append(1)
            raise TypeError("bug, not transient")

        with pytest.raises(TypeError):
            with_retries(typo, RetryPolicy(max_attempts=5))
        assert len(calls) == 1

    def test_first_try_success_draws_no_backoff(self, monkeypatch):
        # The jitter schedule is drawn at the first retry, not up front:
        # a dispatch that succeeds pays for no generator.
        def no_delays(policy):
            raise AssertionError("delays() drawn without a retry")

        monkeypatch.setattr(RetryPolicy, "delays", no_delays)
        state = RetryState()
        assert with_retries(lambda: 7, RetryPolicy(max_attempts=4),
                            state=state) == 7
        assert state.attempts == 1 and state.retries == 0

    def test_sleep_pluggable_and_accounted(self):
        slept = []

        def flaky():
            if not slept:
                raise OSError("once")
            return 1

        state = RetryState()
        p = RetryPolicy(max_attempts=2, backoff_base_s=0.25, jitter=0.0)
        with_retries(flaky, p, sleep=slept.append, state=state)
        assert slept == pytest.approx([0.25])
        assert state.backoff_total_s == pytest.approx(0.25)

    def test_shared_state_accumulates_across_calls(self):
        state = RetryState()

        def once_bad():
            if state.retries < 1:
                raise OSError("x")
            return 1

        p = RetryPolicy(max_attempts=2)
        with_retries(once_bad, p, state=state)
        with_retries(lambda: 2, p, state=state)
        assert state.attempts == 3
        assert state.retries == 1
