"""Adaptive gradient-exchange engine: selection, fusion, compression, overlap."""
import numpy as np
import pytest

from repro.comm import EngineConfig, GradientExchangeEngine, World, fuse_order
from repro.framework.dtypes import FP16
from repro.telemetry import Telemetry, activate

SPEC_SMALL = [(f"layer{i}.w", (4, 8)) for i in range(16)]
SPEC_MIXED = [("stem.w", (64, 16, 3, 3)), ("stem.b", (64,)),
              ("block.w", (32, 64, 3, 3)), ("block.b", (32,)),
              ("head.w", (3, 32, 1, 1)), ("head.b", (3,))]


def make_grads(n, spec, seed=0):
    rng = np.random.default_rng(seed)
    return [
        {name: rng.normal(size=shape).astype(np.float32)
         for name, shape in spec}
        for _ in range(n)
    ]


def expected_mean(grads):
    return {k: np.mean([g[k] for g in grads], axis=0)
            for k in grads[0]}


class TestFusion:
    def test_respects_threshold(self):
        sizes = {"a": 40, "b": 40, "c": 40}
        plan = fuse_order(["a", "b", "c"], sizes, threshold_bytes=80)
        assert plan.groups == [["a", "b"], ["c"]]
        assert plan.group_bytes == [80, 40]

    def test_single_oversized_tensor_gets_own_group(self):
        plan = fuse_order(["big", "a"], {"big": 1000, "a": 10}, threshold_bytes=100)
        assert plan.groups == [["big"], ["a"]]

    def test_order_preserved(self):
        names = [f"t{i}" for i in range(10)]
        plan = fuse_order(names, {n: 1 for n in names}, threshold_bytes=3)
        flat = [n for g in plan.groups for n in g]
        assert flat == names

    def test_huge_threshold_single_collective(self):
        plan = fuse_order(["a", "b"], {"a": 5, "b": 5}, threshold_bytes=10**9)
        assert plan.num_collectives == 1


class TestConfig:
    def test_defaults_valid(self):
        cfg = EngineConfig()
        assert cfg.compression is None and cfg.autotune and cfg.overlap

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown comm strategy"):
            EngineConfig(strategies=("ring", "quantum"))

    def test_empty_strategies_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            EngineConfig(strategies=())

    def test_unknown_compression_rejected(self):
        with pytest.raises(ValueError, match="compression"):
            EngineConfig(compression="fp4")

    def test_nonpositive_bucket_rejected(self):
        with pytest.raises(ValueError, match="bucket_bytes"):
            EngineConfig(bucket_bytes=0)


class TestDenseExchange:
    # algo None is the default, autotuned config; the rest pin one strategy.
    @pytest.mark.parametrize("algo,n", [
        pytest.param(None, 2, id="2"), pytest.param(None, 3, id="3"),
        pytest.param(None, 5, id="5"),
        ("ring", 4), ("tree", 5), ("naive", 3), ("hierarchical", 12)])
    def test_matches_mean(self, algo, n):
        grads = make_grads(n, SPEC_MIXED, seed=n)
        cfg = (EngineConfig() if algo is None else
               EngineConfig(strategies=(algo,), autotune=False, bucket_bytes=100))
        averaged, report = GradientExchangeEngine(n, cfg).exchange(World(n), grads)
        want = expected_mean(grads)
        for r in range(n):
            for k, v in want.items():
                np.testing.assert_allclose(averaged[r][k], v,
                                           rtol=1e-5, atol=1e-6)
        assert report.decisions
        assert set(report.decisions.values()) <= set(cfg.strategies)
        assert report.data_messages > 0 and report.data_bytes > 0
        assert report.dense_bytes == sum(g.nbytes for g in grads[0].values())
        assert report.wire_bytes == report.dense_bytes

    def test_replicas_bit_identical(self):
        grads = make_grads(3, SPEC_MIXED, seed=4)
        averaged, _ = GradientExchangeEngine(3).exchange(World(3), grads)
        for k in grads[0]:
            np.testing.assert_array_equal(averaged[0][k], averaged[1][k])
            np.testing.assert_array_equal(averaged[0][k], averaged[2][k])

    def test_canonical_key_order_restored(self):
        grads = make_grads(2, SPEC_MIXED, seed=1)
        averaged, _ = GradientExchangeEngine(2).exchange(World(2), grads)
        assert list(averaged[0]) == list(grads[0])

    def test_shapes_and_dtypes_preserved(self):
        for dtype in (np.float32, FP16):
            grads = [{k: g.astype(dtype) for k, g in rank.items()}
                     for rank in make_grads(2, SPEC_MIXED, seed=2)]
            averaged, _ = GradientExchangeEngine(2).exchange(World(2), grads)
            for k, g in grads[0].items():
                assert averaged[0][k].shape == g.shape
                assert averaged[0][k].dtype == g.dtype

    def test_rank_count_mismatch_rejected(self):
        grads = make_grads(2, SPEC_SMALL)
        with pytest.raises(ValueError, match="gradient dicts"):
            GradientExchangeEngine(3).exchange(World(3), grads)

    def test_name_mismatch_rejected(self):
        grads = make_grads(2, SPEC_SMALL)
        grads[1] = {f"other.{k}": v for k, v in grads[1].items()}
        with pytest.raises(ValueError, match="tensor names"):
            GradientExchangeEngine(2).exchange(World(2), grads)


class TestBucketing:
    def test_fusion_cuts_collectives(self):
        # 16 small tensors fuse into far fewer collectives (>= 4x cut).
        grads = make_grads(2, SPEC_SMALL)
        cfg = EngineConfig(bucket_bytes=4 * 1024 * 1024)
        _, report = GradientExchangeEngine(2, cfg).exchange(World(2), grads)
        assert report.fusion.num_collectives * 4 <= len(SPEC_SMALL)

    def test_tiny_buckets_disable_fusion(self):
        grads = make_grads(2, SPEC_SMALL)
        cfg = EngineConfig(bucket_bytes=1)  # every tensor overflows its bucket
        _, report = GradientExchangeEngine(2, cfg).exchange(World(2), grads)
        assert report.fusion.num_collectives == len(SPEC_SMALL)

    def test_buckets_packed_in_backward_order(self):
        grads = make_grads(2, SPEC_MIXED)
        cfg = EngineConfig(bucket_bytes=1 << 30)
        _, report = GradientExchangeEngine(2, cfg).exchange(World(2), grads)
        names = [n for group in report.fusion.groups for n in group]
        assert names == list(reversed([n for n, _ in SPEC_MIXED]))

    def test_decisions_cover_every_bucket(self):
        grads = make_grads(2, SPEC_SMALL)
        cfg = EngineConfig(bucket_bytes=256)
        _, report = GradientExchangeEngine(2, cfg).exchange(World(2), grads)
        assert sorted(report.decisions) == list(range(report.fusion.num_collectives))
        assert set(report.decisions.values()) <= {"ring", "tree",
                                                  "hierarchical", "naive"}


class TestSelection:
    def test_hierarchical_needs_full_nodes(self):
        engine = GradientExchangeEngine(12)
        assert "hierarchical" in engine._candidates(12, 1 << 20)
        assert "hierarchical" not in engine._candidates(5, 1 << 20)
        assert "hierarchical" not in engine._candidates(8, 1 << 20)

    def test_candidates_sorted_by_model(self):
        engine = GradientExchangeEngine(8)
        from repro.comm import get_strategy
        cfg = engine.config
        for nbytes in (64, 1 << 16, 1 << 26):
            names = engine._candidates(8, nbytes)
            times = [get_strategy(n).modeled_time(
                8, float(nbytes), nvlink=cfg.nvlink,
                interconnect=cfg.interconnect,
                **engine._strategy_params(n)) for n in names]
            assert times == sorted(times)

    def test_autotune_settles_after_trying_all(self):
        grads = make_grads(4, SPEC_SMALL)
        engine = GradientExchangeEngine(4)  # candidates: ring/tree/naive
        key = None
        for step in range(4):
            _, report = engine.exchange(World(4), grads)
        key = (4, engine._size_class(report.fusion.group_bytes[0]))
        assert key in engine._settled
        measured = engine._measured[key]
        assert set(measured) == set(engine._candidates(4, 1))
        # The settled choice is the measured argmin — by construction it can
        # never be slower than the worst fixed algorithm at this size.
        assert engine._settled[key] == min(measured, key=measured.get)
        assert measured[engine._settled[key]] <= max(measured.values())

    def test_settled_choice_is_stable(self):
        grads = make_grads(4, SPEC_SMALL)
        engine = GradientExchangeEngine(4)
        for _ in range(4):
            engine.exchange(World(4), grads)
        first = engine.select(4, SPEC_SMALL[0][1][0] * SPEC_SMALL[0][1][1] * 4)
        for _ in range(3):
            engine.exchange(World(4), grads)
        assert engine.select(4, SPEC_SMALL[0][1][0] * SPEC_SMALL[0][1][1] * 4) == first

    def test_autotune_off_uses_model(self):
        cfg = EngineConfig(autotune=False)
        engine = GradientExchangeEngine(4, cfg)
        grads = make_grads(4, SPEC_SMALL)
        engine.exchange(World(4), grads)
        assert engine._measured == {} and engine._settled == {}
        assert engine.select(4, 1 << 20) == engine._candidates(4, 1 << 20)[0]


class TestCompressedExchange:
    def test_topk_cuts_wire_bytes(self):
        grads = make_grads(3, SPEC_MIXED, seed=9)
        cfg = EngineConfig(compression="topk", compression_ratio=0.01)
        _, report = GradientExchangeEngine(3, cfg).exchange(World(3), grads)
        assert report.wire_bytes < report.dense_bytes / 10
        assert report.compression_ratio > 10
        assert set(report.decisions.values()) == {"topk"}

    def test_topk_replicas_bit_identical(self):
        grads = make_grads(3, SPEC_MIXED, seed=10)
        cfg = EngineConfig(compression="topk", compression_ratio=0.05)
        averaged, _ = GradientExchangeEngine(3, cfg).exchange(World(3), grads)
        for k in grads[0]:
            np.testing.assert_array_equal(averaged[0][k], averaged[1][k])
            np.testing.assert_array_equal(averaged[0][k], averaged[2][k])

    def test_topk_ratio_one_is_exact(self):
        grads = make_grads(2, SPEC_MIXED, seed=11)
        cfg = EngineConfig(compression="topk", compression_ratio=1.0)
        averaged, _ = GradientExchangeEngine(2, cfg).exchange(World(2), grads)
        want = expected_mean(grads)
        for k, v in want.items():
            np.testing.assert_allclose(averaged[0][k], v, rtol=1e-5, atol=1e-6)

    def test_int8_approximates_mean(self):
        grads = make_grads(3, SPEC_MIXED, seed=12)
        cfg = EngineConfig(compression="int8")
        averaged, report = GradientExchangeEngine(3, cfg).exchange(
            World(3), grads)
        want = expected_mean(grads)
        for k, v in want.items():
            # Quantization error is bounded by half a step (~peak/254).
            peak = max(float(np.abs(grads[r][k]).max()) for r in range(3))
            np.testing.assert_allclose(averaged[0][k], v,
                                       atol=peak / 100, rtol=0)
        # One byte per element plus per-tensor scales: ~4x saving on fp32.
        assert report.compression_ratio > 3.5
        assert set(report.decisions.values()) == {"int8"}

    def test_int8_replicas_bit_identical(self):
        grads = make_grads(4, SPEC_MIXED, seed=13)
        cfg = EngineConfig(compression="int8")
        averaged, _ = GradientExchangeEngine(4, cfg).exchange(World(4), grads)
        for k in grads[0]:
            for r in (1, 2, 3):
                np.testing.assert_array_equal(averaged[0][k], averaged[r][k])

    def test_compressor_world_mismatch_rejected(self):
        cfg = EngineConfig(compression="topk")
        engine = GradientExchangeEngine(3, cfg)
        with pytest.raises(ValueError, match="sized for 3"):
            engine.exchange(World(2), make_grads(2, SPEC_SMALL))


class TestErrorFeedback:
    def test_residuals_deterministic_under_fixed_seed(self):
        # Same seed, same config -> bit-identical residual state.
        cfg = EngineConfig(compression="topk", compression_ratio=0.02)
        states = []
        for _ in range(2):
            engine = GradientExchangeEngine(3, cfg)
            for step in range(3):
                engine.exchange(World(3), make_grads(3, SPEC_MIXED, seed=step))
            states.append(engine.comm_state())
        assert sorted(states[0]) == sorted(states[1])
        for key in states[0]:
            np.testing.assert_array_equal(states[0][key], states[1][key])

    def test_residuals_accumulate_per_rank_per_tensor(self):
        cfg = EngineConfig(compression="topk", compression_ratio=0.01)
        engine = GradientExchangeEngine(2, cfg)
        engine.exchange(World(2), make_grads(2, SPEC_MIXED, seed=3))
        state = engine.comm_state()
        names = [n for n, _ in SPEC_MIXED]
        assert sorted(state) == sorted(f"rank{r}.{n}"
                                       for r in range(2) for n in names)
        assert all(np.linalg.norm(v) > 0 for v in state.values())

    def test_state_roundtrip_bit_exact(self):
        cfg = EngineConfig(compression="int8")
        a = GradientExchangeEngine(2, cfg)
        for step in range(2):
            a.exchange(World(2), make_grads(2, SPEC_MIXED, seed=step))
        saved = a.comm_state()

        b = GradientExchangeEngine(2, cfg)
        b.load_comm_state(saved)
        for key, value in saved.items():
            np.testing.assert_array_equal(b.comm_state()[key], value)
        # The restored engine continues exactly where the original would.
        next_grads = make_grads(2, SPEC_MIXED, seed=99)
        out_a, _ = a.exchange(World(2), next_grads)
        out_b, _ = b.exchange(World(2), next_grads)
        for k in next_grads[0]:
            np.testing.assert_array_equal(out_a[0][k], out_b[0][k])

    def test_dense_engine_has_no_comm_state(self):
        engine = GradientExchangeEngine(2)
        engine.exchange(World(2), make_grads(2, SPEC_SMALL))
        assert engine.comm_state() == {}
        engine.load_comm_state({"rank0.x": np.ones(3)})  # no-op, no error

    def test_shrink_drops_only_failed_ranks(self):
        cfg = EngineConfig(compression="topk", compression_ratio=0.02)
        engine = GradientExchangeEngine(3, cfg)
        engine.exchange(World(3), make_grads(3, SPEC_MIXED, seed=5))
        before = engine.comm_state()
        engine.shrink([0, 2])  # rank 1 failed
        after = engine.comm_state()
        assert engine.world_size == 2
        names = [n for n, _ in SPEC_MIXED]
        assert sorted(after) == sorted(f"rank{r}.{n}"
                                       for r in range(2) for n in names)
        for name in names:
            np.testing.assert_array_equal(after[f"rank0.{name}"],
                                          before[f"rank0.{name}"])
            np.testing.assert_array_equal(after[f"rank1.{name}"],
                                          before[f"rank2.{name}"])
        # The shrunk engine keeps exchanging at the new size.
        averaged, _ = engine.exchange(World(2), make_grads(2, SPEC_MIXED))
        assert list(averaged[0]) == names


class TestOverlap:
    def test_fraction_bounded(self):
        grads = make_grads(2, SPEC_SMALL)
        cfg = EngineConfig(bucket_bytes=256)
        _, report = GradientExchangeEngine(2, cfg).exchange(World(2), grads)
        assert 0.0 <= report.overlap_fraction <= 1.0

    def test_disabled_overlap_reports_zero(self):
        grads = make_grads(2, SPEC_SMALL)
        cfg = EngineConfig(overlap=False)
        _, report = GradientExchangeEngine(2, cfg).exchange(World(2), grads)
        assert report.overlap_fraction == 0.0

    def test_single_bucket_cannot_hide_comm(self):
        # One bucket is ready only after all backward compute: nothing to
        # overlap with, so the full comm time is exposed.
        grads = make_grads(2, SPEC_MIXED)
        cfg = EngineConfig(bucket_bytes=1 << 30)
        _, report = GradientExchangeEngine(2, cfg).exchange(World(2), grads)
        assert report.fusion.num_collectives == 1
        assert report.overlap_fraction == 0.0

    def test_slow_compute_hides_comm(self):
        # When backward compute dominates, early buckets' comm hides under
        # the compute still producing later buckets.
        grads = make_grads(2, SPEC_SMALL)
        cfg = EngineConfig(bucket_bytes=256, compute_s_per_byte=1e-3)
        _, report = GradientExchangeEngine(2, cfg).exchange(World(2), grads)
        assert report.fusion.num_collectives > 1
        assert report.overlap_fraction > 0.5


class TestTelemetry:
    def test_counters_and_spans_emitted(self):
        grads = make_grads(2, SPEC_SMALL)
        tel = Telemetry()
        with activate(tel):
            _, report = GradientExchangeEngine(2).exchange(World(2), grads)
        assert tel.metrics.counter("comm.engine.exchanges").value == 1
        assert (tel.metrics.counter("comm.engine.collectives").value
                == report.fusion.num_collectives)
        assert (tel.metrics.counter("comm.engine.bytes_on_wire").value
                == report.data_bytes)
        names = [s.name for s in tel.tracer.spans()]
        assert "engine.exchange" in names and "engine.bucket" in names
