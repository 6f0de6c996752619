"""The in-place strategy contract and message recycling.

Built-in strategies reduce in the buffers ``CommStrategy.run`` hands them
and return them, bit-identical to the copying implementations in
``tests/copying_exchange.py``; the ``allreduce`` facade never mutates its
inputs; the wire reuses message buffers a receiver hands back without
giving up snapshot-at-send semantics.
"""
import numpy as np
import pytest

from repro.comm import (CommStrategy, EngineConfig, GradientExchangeEngine,
                        World, allreduce, get_strategy, register_strategy)
from repro.errors import DeadlockError, MessageDropped
from repro.framework.dtypes import FP16, FP32, FP64
from repro.resilience import FaultInjector, FaultPlan, FaultSpec
from tests.copying_exchange import copying_allreduce

SIZES = [1, 2, 3, 4, 6, 12]
DTYPES = [FP16, FP32, FP64]
# (gpus_per_node, mpi_ranks_per_node) giving every size several nodes
# where it can have them.
HIER = {1: (1, 1), 2: (1, 1), 3: (3, 2), 4: (2, 2), 6: (3, 2), 12: (6, 4)}


def _params(name, n):
    if name != "hierarchical":
        return {}
    gpn, mrpn = HIER[n]
    return dict(gpus_per_node=gpn, mpi_ranks_per_node=mrpn)


def _buffers(n, dtype, size=37, seed=0):
    rng = np.random.default_rng(seed + n)
    return [rng.normal(size=size).astype(dtype) for _ in range(n)]


@pytest.mark.parametrize("average", [False, True])
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("name", ["naive", "ring", "tree", "hierarchical"])
def test_strategy_reduces_in_place_bit_identically(name, n, dtype, average):
    params = _params(name, n)
    bufs = _buffers(n, dtype)
    ref_world, world = World(n), World(n)
    expect = copying_allreduce(ref_world, [b.copy() for b in bufs], name,
                               average=average, **params)

    handed = [b.copy() for b in bufs]
    out = get_strategy(name).run(world, handed, average=average, **params)

    assert len(out) == n
    for r in range(n):
        if dtype == FP16:
            # Converted to FP32 for the reduction; the FP16 input is untouched.
            assert out[r].dtype == np.float32
            assert handed[r].tobytes() == bufs[r].tobytes()
        else:
            assert out[r] is handed[r]
        assert out[r].dtype == expect[r].dtype
        assert out[r].tobytes() == expect[r].tobytes()
        assert out[r].tobytes() == out[0].tobytes()
    assert world.stats.total_messages == ref_world.stats.total_messages
    assert world.stats.total_bytes == ref_world.stats.total_bytes


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("name", ["naive", "ring", "tree", "hierarchical"])
def test_facade_never_mutates_inputs(name, dtype):
    n = 6
    bufs = _buffers(n, dtype, size=(5, 8))
    # A transposed (non C-order) input must be reduced correctly too.
    bufs[1] = np.ascontiguousarray(bufs[1].T).T
    before = [b.tobytes() for b in bufs]
    out = allreduce(World(n), bufs, strategy=name, average=True,
                    **_params(name, n))
    assert [b.tobytes() for b in bufs] == before
    expect = copying_allreduce(World(n), bufs, name, average=True,
                               **_params(name, n))
    for o, e in zip(out, expect):
        assert o.tobytes() == e.tobytes()
        assert not any(np.shares_memory(o, b) for b in bufs)


@pytest.mark.parametrize("name", ["naive", "ring", "tree"])
def test_repeated_collective_allocates_no_message_buffers(name):
    n = 4
    world = World(n)
    strategy = get_strategy(name)
    strategy.run(world, _buffers(n, np.float32, size=1001))
    warm = world.buffers_allocated
    assert warm > 0
    for step in range(3):
        strategy.run(world, _buffers(n, np.float32, size=1001, seed=step))
    assert world.buffers_allocated == warm


class TestMessageRecycling:
    def test_send_reuses_a_recycled_buffer_and_snapshots(self):
        w = World(2)
        recycled = np.full(3, 7.0)
        w.recycle(recycled)
        data = np.zeros(3)
        w.send(data, 0, 1)
        data[:] = 99
        out = w.recv(1, 0)
        assert out is recycled
        np.testing.assert_array_equal(out, [0, 0, 0])
        assert w.buffers_allocated == 0

    def test_shape_and_dtype_must_match(self):
        w = World(2)
        w.recycle(np.zeros(3, dtype=np.float32))
        w.send(np.zeros(3, dtype=np.float64), 0, 1)
        w.send(np.zeros(4, dtype=np.float32), 0, 1)
        assert w.buffers_allocated == 2

    def test_views_are_not_pooled(self):
        w = World(2)
        base = np.zeros(8)
        w.recycle(base[:4])
        w.send(np.ones(4), 0, 1)
        assert w.buffers_allocated == 1
        np.testing.assert_array_equal(base, 0)

    def test_drop_with_recycling(self):
        plan = FaultPlan([FaultSpec("drop_msg", step=0, count=1)])
        injector = FaultInjector(plan)
        injector.begin_step(0)
        w = World(2, fault_injector=injector)
        w.recycle(np.zeros(2))
        w.recycle(np.zeros(2))
        w.send(np.array([1.0, 2.0]), 0, 1)
        w.send(np.array([3.0, 4.0]), 0, 1)
        with pytest.raises(MessageDropped):
            w.recv(1, 0)
        np.testing.assert_array_equal(w.recv(1, 0), [3.0, 4.0])
        assert w.stats.total_dropped == 1
        assert w.buffers_allocated == 0

    def test_duplicate_with_recycling(self):
        plan = FaultPlan([FaultSpec("dup_msg", step=0, count=1)])
        injector = FaultInjector(plan)
        injector.begin_step(0)
        w = World(2, fault_injector=injector)
        w.recycle(np.zeros(2))
        src = np.array([1.0, 2.0])
        w.send(src, 0, 1)
        src[:] = -1
        w.send(src, 0, 1)
        first = w.recv(1, 0)
        np.testing.assert_array_equal(first, [1.0, 2.0])
        w.recycle(first)
        np.testing.assert_array_equal(w.recv(1, 0), [-1.0, -1.0])
        with pytest.raises(DeadlockError):
            w.recv(1, 0)
        assert w.stats.total_duplicated == 1


def _grads(n, seed, dtype=np.float32):
    rng = np.random.default_rng(seed)
    shapes = {"a": (40, 3), "b": (17,), "c": (4, 4, 3, 3), "d": (250,)}
    return [{k: rng.normal(size=s).astype(dtype) for k, s in shapes.items()}
            for _ in range(n)]


class TestEngineBuffers:
    def test_steady_exchange_allocates_nothing_on_the_wire(self):
        n = 4
        world = World(n)
        engine = GradientExchangeEngine(n, EngineConfig(bucket_bytes=1024))
        for step in range(6):                  # autotune tries, then settles
            engine.exchange(world, _grads(n, step))
        warm = world.buffers_allocated
        for step in range(6, 10):
            engine.exchange(world, _grads(n, step))
        assert world.buffers_allocated == warm

    def test_averaged_views_share_the_pack_buffers(self):
        n = 3
        world = World(n)
        engine = GradientExchangeEngine(n, EngineConfig(autotune=False))
        first, _ = engine.exchange(world, _grads(n, 0))
        kept = {k: v.copy() for k, v in first[0].items()}
        second, _ = engine.exchange(world, _grads(n, 1))
        for k in kept:
            # Valid until the next exchange, which overwrites them.
            assert np.shares_memory(first[0][k], second[0][k])
            assert not np.array_equal(first[0][k], kept[k])
            assert not np.shares_memory(second[0][k], second[1][k])

    def test_buffers_follow_dtype_and_world_size(self):
        engine = GradientExchangeEngine(4, EngineConfig(autotune=False))
        for dtype in (np.float32, np.float64, np.float32):
            grads = _grads(4, 3, dtype)
            out, _ = engine.exchange(World(4), grads)
            mean = {k: np.mean([g[k] for g in grads], axis=0) for k in grads[0]}
            for k, v in out[2].items():
                assert v.dtype == dtype
                np.testing.assert_allclose(v, mean[k], rtol=1e-5, atol=1e-6)
        engine.shrink([0, 2, 3])
        grads = _grads(3, 4)
        out, _ = engine.exchange(World(3), grads)
        mean = np.mean([g["d"] for g in grads], axis=0)
        np.testing.assert_allclose(out[1]["d"], mean, rtol=1e-5, atol=1e-6)

    def test_allocating_strategy_still_works(self):
        def fresh(world, buffers, average, tag):
            total = np.sum(buffers, axis=0) / (world.size if average else 1)
            return [total.copy() for _ in range(world.size)]

        register_strategy(CommStrategy("fresh-test", fresh, 92,
                                       lambda n, v, **kw: 1.0))
        try:
            engine = GradientExchangeEngine(
                2, EngineConfig(strategies=("fresh-test",)))
            grads = _grads(2, 5)
            out, report = engine.exchange(World(2), grads)
            assert set(report.decisions.values()) == {"fresh-test"}
            np.testing.assert_allclose(
                out[0]["a"], (grads[0]["a"] + grads[1]["a"]) / 2, rtol=1e-6)
        finally:
            from repro.comm.api import _REGISTRY
            _REGISTRY.pop("fresh-test", None)
