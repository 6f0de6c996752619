"""Replica pool: routing, elastic degradation, retry-on-survivor."""
import numpy as np
import pytest

from repro.errors import ReproError
from repro.framework import Tensor
from repro.framework.module import Module
from repro.resilience import FaultInjector, FaultPlan, RetriesExhausted
from repro.serve import InferenceRequest, ReplicaPool, TileCache


class MeanModel(Module):
    """Logit 0 = channel-0 value (elementwise, so batch-invariant)."""

    def forward(self, x):
        data = x.data.astype(np.float32)
        return Tensor(np.stack([data[:, 0], -data[:, 0]], axis=1))


class BrokenModel(Module):
    def forward(self, x):
        raise ReproError("replica wedged")


def requests(n, hw=(8, 8), seed=0):
    rng = np.random.default_rng(seed)
    return [InferenceRequest(i, rng.standard_normal(
        (2, *hw)).astype(np.float32), arrival_s=0.0) for i in range(n)]


def make_pool(num_replicas=2, factory=MeanModel, **kwargs):
    return ReplicaPool(factory, num_replicas, window_hw=(4, 4),
                       stride_hw=(2, 2), forward_batch=8, **kwargs)


class TestRouting:
    def test_least_loaded_idle_replica_wins(self):
        pool = make_pool(3)
        pool.replicas[0].busy_until = 5.0
        pool.replicas[1].busy_until = 1.0
        pool.replicas[2].busy_until = 3.0
        assert pool.free_replica(2.0).replica_id == 1   # only idle one
        assert pool.free_replica(4.0).replica_id == 1   # least-loaded idle
        assert pool.free_replica(0.5) is None

    def test_none_when_all_busy(self):
        pool = make_pool(2)
        for r in pool.replicas:
            r.busy_until = 10.0
        assert pool.free_replica(0.0) is None
        assert pool.next_free_s() == 10.0

    def test_dead_replicas_leave_routing(self):
        pool = make_pool(2)
        pool._mark_dead(pool.replicas[0], reason="test")
        assert pool.alive_ids == [1]
        assert pool.dead_ids == [0]
        assert pool.free_replica(0.0).replica_id == 1


class TestExecute:
    def test_batch_produces_one_map_per_request(self):
        pool = make_pool(2)
        reqs = requests(3)
        result = pool.execute(reqs, now=0.0)
        assert len(result.class_maps) == 3
        assert result.class_maps[0].shape == (8, 8)
        assert result.windows == 3 * 9      # 3x3 positions per 8x8 image
        assert result.retries == 0

    def test_class_map_thresholds_channel0(self):
        pool = make_pool(1)
        reqs = requests(1)
        result = pool.execute(reqs, now=0.0)
        # MeanModel logits are (v, -v): argmax is 1 exactly where v < 0.
        expected = (reqs[0].image[0] < 0).astype(int)
        np.testing.assert_array_equal(result.class_maps[0], expected)

    def test_shared_cache_dedupes_repeat_windows(self):
        cache = TileCache(1 << 20)
        pool = make_pool(1, cache=cache)
        reqs = requests(1)
        pool.execute(reqs, now=0.0)
        misses_first = cache.stats.misses
        pool.execute(reqs, now=1.0)         # same content: all hits
        assert cache.stats.misses == misses_first
        assert cache.stats.hits >= 9


class TestFaultTolerance:
    def test_injected_failure_retries_on_survivor(self):
        plan = FaultPlan.parse("rank_fail@0:rank=0", seed=0)
        pool = make_pool(2, injector=FaultInjector(plan))
        result = pool.execute(requests(2), now=0.0)
        assert result.replica_id == 1       # survivor computed the answer
        assert result.retries == 1
        assert result.failures == [0]
        assert result.backoff_s > 0
        assert pool.dead_ids == [0]

    def test_replica_exception_marks_dead_and_retries(self):
        built = []

        def factory():
            model = BrokenModel() if not built else MeanModel()
            built.append(model)
            return model

        pool = make_pool(2, factory=factory)
        result = pool.execute(requests(1), now=0.0)
        assert result.replica_id == 1
        assert pool.dead_ids == [0]

    def test_all_dead_exhausts_retries(self):
        plan = FaultPlan.parse("rank_fail@0:rank=0", seed=0)
        pool = make_pool(1, injector=FaultInjector(plan))
        with pytest.raises(RetriesExhausted):
            pool.execute(requests(1), now=0.0)
        assert pool.alive_ids == []

    def test_busy_survivor_still_takes_retried_batch(self):
        plan = FaultPlan.parse("rank_fail@0:rank=0", seed=0)
        pool = make_pool(2, injector=FaultInjector(plan))
        pool.replicas[1].busy_until = 100.0     # busy but alive
        result = pool.execute(requests(1), now=0.0)
        assert result.replica_id == 1


class TestValidation:
    def test_zero_replicas_rejected(self):
        with pytest.raises(ValueError):
            make_pool(0)
