"""Horovod-style exchange through the engine: one pinned strategy and a fixed
fusion threshold, as Horovod is configured, must still average exactly."""
import numpy as np
import pytest

from repro.comm import EngineConfig, GradientExchangeEngine, World
from repro.framework.dtypes import FP16


def fixed(algorithm="ring", fusion_threshold_bytes=64 << 20):
    return EngineConfig(strategies=(algorithm,), autotune=False,
                        bucket_bytes=fusion_threshold_bytes)


def exchange(world, grads, config=None):
    return GradientExchangeEngine(world.size, config).exchange(world, grads)


class TestExchange:
    def _grads(self, n, seed=0):
        rng = np.random.default_rng(seed)
        return [
            {f"layer{i}.w": rng.normal(size=(4, 3)).astype(np.float32)
             for i in range(5)}
            for _ in range(n)
        ]

    def test_all_ranks_identical(self):
        grads = self._grads(4)
        avg, _ = exchange(World(4), grads, fixed("ring"))
        for k in avg[0]:
            for r in range(1, 4):
                np.testing.assert_array_equal(avg[r][k], avg[0][k])

    def test_fusion_reduces_collectives(self):
        grads = self._grads(4)
        small = exchange(World(4), grads, fixed("ring", 8))[1]
        big = exchange(World(4), grads, fixed("ring", 10**9))[1]
        assert big.fusion.num_collectives < small.fusion.num_collectives
        assert big.fusion.num_collectives == 1

    def test_name_mismatch_raises(self):
        grads = self._grads(2)
        grads[1] = {"other": np.zeros((2, 2), dtype=np.float32)}
        with pytest.raises(ValueError, match="differ"):
            exchange(World(2), grads)

    def test_wrong_rank_count_raises(self):
        with pytest.raises(ValueError, match="gradient dicts"):
            exchange(World(3), self._grads(2))

    def test_dtype_preserved(self):
        grads = [{"w": np.ones((2, 2), dtype=FP16)} for _ in range(2)]
        avg, _ = exchange(World(2), grads, fixed("ring"))
        assert avg[0]["w"].dtype == FP16
