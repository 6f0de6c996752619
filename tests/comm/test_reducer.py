"""All-reduce strategies: exactness, traffic shape, facade semantics."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import (
    CommStrategy,
    World,
    allreduce,
    available_strategies,
    get_strategy,
)

ALGOS = ["naive", "ring", "tree"]


def make_buffers(n, size, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=size).astype(np.float32) for _ in range(n)]


class TestCorrectness:
    @pytest.mark.parametrize("algo", ALGOS)
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_sum_exact(self, algo, n):
        bufs = make_buffers(n, 23, seed=n)
        expect = np.sum(bufs, axis=0)
        w = World(n)
        results = allreduce(w, bufs, strategy=algo)
        for r in results:
            np.testing.assert_allclose(r, expect, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("algo", ALGOS)
    def test_average(self, algo):
        bufs = make_buffers(4, 17)
        w = World(4)
        results = get_strategy(algo).run(w, [b.copy() for b in bufs],
                                         average=True)
        expect = np.mean(bufs, axis=0)
        for r in results:
            np.testing.assert_allclose(r, expect, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("gpn,mrpn,nodes", [(6, 4, 2), (6, 4, 4), (6, 6, 3),
                                                (4, 2, 2), (6, 1, 2), (6, 4, 1)])
    def test_hierarchical_sum(self, gpn, mrpn, nodes):
        n = gpn * nodes
        bufs = make_buffers(n, 31, seed=n)
        expect = np.sum(bufs, axis=0)
        w = World(n)
        results = allreduce(w, bufs, strategy="hierarchical", gpus_per_node=gpn,
                            mpi_ranks_per_node=mrpn)
        for r in results:
            np.testing.assert_allclose(r, expect, rtol=1e-4, atol=1e-4)

    def test_hierarchical_divisibility_check(self):
        w = World(5)
        with pytest.raises(ValueError, match="divisible"):
            allreduce(w, make_buffers(5, 4), strategy="hierarchical",
                      gpus_per_node=6)

    def test_hierarchical_mpi_ranks_check(self):
        w = World(6)
        with pytest.raises(ValueError, match="mpi_ranks_per_node"):
            allreduce(w, make_buffers(6, 4), strategy="hierarchical",
                      gpus_per_node=6, mpi_ranks_per_node=7)

    def test_multidimensional_buffers(self):
        bufs = [b.reshape(4, 6) for b in make_buffers(3, 24)]
        w = World(3)
        results = allreduce(w, bufs, strategy="ring")
        assert results[0].shape == (4, 6)
        np.testing.assert_allclose(results[0], np.sum(bufs, axis=0), rtol=1e-5)

    def test_buffer_count_mismatch(self):
        w = World(3)
        with pytest.raises(ValueError, match="buffers"):
            allreduce(w, make_buffers(2, 4), strategy="ring")

    def test_buffer_shape_mismatch(self):
        w = World(2)
        with pytest.raises(ValueError, match="shape"):
            allreduce(w, [np.zeros(3), np.zeros(4)], strategy="ring")

    def test_inputs_not_mutated(self):
        bufs = make_buffers(3, 11)
        copies = [b.copy() for b in bufs]
        allreduce(World(3), bufs, strategy="ring")
        for b, c in zip(bufs, copies):
            np.testing.assert_array_equal(b, c)


class TestRegistry:
    def test_builtins_registered(self):
        assert set(available_strategies()) >= {"naive", "ring", "tree",
                                               "hierarchical"}

    def test_unknown_strategy_lists_available(self):
        with pytest.raises(ValueError, match="ring"):
            get_strategy("quantum")
        with pytest.raises(ValueError, match="unknown comm strategy"):
            allreduce(World(2), make_buffers(2, 4), strategy="quantum")

    def test_custom_strategy_dispatch(self):
        def doubled(world, buffers, average, tag):
            total = np.sum(buffers, axis=0)
            return [2 * total for _ in range(world.size)]

        bufs = make_buffers(3, 5)
        out = allreduce(World(3), bufs,
                        strategy=CommStrategy("doubled-test", doubled, 90))
        np.testing.assert_allclose(out[0], 2 * np.sum(bufs, axis=0),
                                   rtol=1e-5)
        assert "doubled-test" not in available_strategies()

    def test_strategy_instance_accepted_directly(self):
        ring = get_strategy("ring")
        bufs = make_buffers(2, 9)
        out = allreduce(World(2), bufs, strategy=ring)
        np.testing.assert_allclose(out[0], np.sum(bufs, axis=0), rtol=1e-5)

    def test_modeled_time_orders_ring_vs_tree(self):
        from repro.hpc.specs import SUMMIT
        ring = get_strategy("ring")
        tree = get_strategy("tree")
        kw = dict(nvlink=SUMMIT.node.nvlink, interconnect=SUMMIT.interconnect)
        # Large payloads favour bandwidth-optimal ring; tiny favour tree.
        assert ring.modeled_time(16, 64e6, **kw) < tree.modeled_time(16, 64e6, **kw)
        assert tree.modeled_time(16, 64.0, **kw) < ring.modeled_time(16, 64.0, **kw)

    def test_no_model_strategy_raises(self):
        s = CommStrategy("modelless-test", lambda w, b, a, t: b, 91)
        with pytest.raises(ValueError, match="no cost model"):
            s.modeled_time(4, 1e6, nvlink=None, interconnect=None)


class TestTrafficShape:
    def test_ring_message_count(self):
        # Reduce-scatter + all-gather: 2 (n-1) rounds of n messages.
        n = 5
        w = World(n)
        allreduce(w, make_buffers(n, 40), strategy="ring")
        assert w.stats.total_messages == 2 * (n - 1) * n

    def test_ring_is_bandwidth_optimal(self):
        # Each rank sends ~2 (n-1)/n * V bytes.
        n, size = 4, 100
        w = World(n)
        allreduce(w, make_buffers(n, size), strategy="ring")
        per_rank = w.stats.sent_bytes[0]
        expect = 2 * (n - 1) / n * size * 4
        assert abs(per_rank - expect) / expect < 0.1

    def test_tree_message_count_logarithmic(self):
        n = 8
        w = World(n)
        allreduce(w, make_buffers(n, 16), strategy="tree")
        # Binomial reduce + broadcast: 2 (n-1) total messages.
        assert w.stats.total_messages == 2 * (n - 1)

    def test_naive_concentrates_on_root(self):
        n = 6
        w = World(n)
        allreduce(w, make_buffers(n, 8), strategy="naive")
        assert w.stats.recv_messages[0] == n - 1
        assert w.stats.sent_messages[0] == n - 1


class TestHypothesis:
    @given(st.integers(2, 10), st.integers(1, 64))
    @settings(max_examples=25, deadline=None)
    def test_ring_any_size(self, n, length):
        bufs = make_buffers(n, length, seed=n * 100 + length)
        w = World(n)
        results = allreduce(w, bufs, strategy="ring")
        expect = np.sum(bufs, axis=0)
        for r in results:
            np.testing.assert_allclose(r, expect, rtol=1e-4, atol=1e-4)

    @given(st.integers(2, 12), st.integers(1, 32))
    @settings(max_examples=25, deadline=None)
    def test_tree_any_size(self, n, length):
        bufs = make_buffers(n, length, seed=n * 7 + length)
        w = World(n)
        results = allreduce(w, bufs, strategy="tree")
        expect = np.sum(bufs, axis=0)
        for r in results:
            np.testing.assert_allclose(r, expect, rtol=1e-4, atol=1e-4)
