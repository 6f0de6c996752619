"""Section V-A3: all-reduce algorithm comparison (ablation).

Functionally verifies all algorithms over the simulated wire, and compares
the analytic cost models: the hybrid NCCL+MPI all-reduce should beat both a
flat inter-node tree over all GPUs and a flat ring at Summit scale, which is
exactly why the paper built it.
"""
import numpy as np
import pytest

from repro.comm import (
    EngineConfig,
    GradientExchangeEngine,
    World,
    allreduce,
    get_strategy,
    hierarchical_allreduce_time,
    ring_allreduce_time,
    tree_allreduce_time,
)
from repro.hpc import SUMMIT
from repro.perf import format_table

GRAD_BYTES = 43e6 * 2  # DeepLabv3+ FP16 gradient volume


def _gradient_spec():
    """The climate model's real gradient set: (name, shape) per tensor."""
    from repro.core.flops import paper_network

    model = paper_network("tiramisu")
    return [(p.name, p.shape) for p in model.parameters()]


def _make_grads(spec, n_ranks, seed=1):
    rng = np.random.default_rng(seed)
    return [
        {name: rng.standard_normal(shape).astype(np.float32)
         for name, shape in spec}
        for _ in range(n_ranks)
    ]


def _engine_runs(spec):
    """Dense autotuned run + one compressed run over the model's gradients.

    Traffic on the simulated wire is a deterministic function of the tensor
    sizes, so every derived ratio gates with a tight band.
    """
    n = 4
    grads = _make_grads(spec, n)
    engine = GradientExchangeEngine(n, EngineConfig())
    for _ in range(3):  # enough exchanges to try every candidate strategy
        _, dense_report = engine.exchange(World(n), grads)
    margins = []
    for key, best in engine._settled.items():
        measured = engine._measured[key]
        margins.append(max(measured.values()) / measured[best])
    autotune_margin = min(margins) if margins else 1.0

    sparse = GradientExchangeEngine(
        2, EngineConfig(compression="topk", compression_ratio=0.01))
    _, topk_report = sparse.exchange(World(2), _make_grads(spec, 2))
    return dense_report, topk_report, autotune_margin


def _weak_scaling_margin():
    """Worst fixed algorithm vs the model-selected one across Summit sizes."""
    margins = []
    for nodes in (16, 256, 4560):
        n = nodes * 6
        times = []
        for name in ("ring", "tree", "hierarchical", "naive"):
            kw = (dict(gpus_per_node=6, mpi_ranks_per_node=4)
                  if name == "hierarchical" else {})
            times.append(get_strategy(name).modeled_time(
                n, GRAD_BYTES, nvlink=SUMMIT.node.nvlink,
                interconnect=SUMMIT.interconnect, **kw))
        margins.append(max(times) / min(times))
    return min(margins)


def test_functional_algorithms(benchmark, emit):
    def run():
        rng = np.random.default_rng(0)
        n = 12
        bufs = [rng.normal(size=2048).astype(np.float32) for _ in range(n)]
        expect = np.sum(bufs, axis=0)
        out = {}
        for name, kw in (
            ("ring", {}),
            ("tree", {}),
            ("hierarchical", dict(gpus_per_node=6, mpi_ranks_per_node=4)),
        ):
            w = World(n)
            res = allreduce(w, bufs, strategy=name, **kw)
            err = max(float(np.abs(r - expect).max()) for r in res)
            out[name] = (err, w.stats.total_messages, w.stats.total_bytes)
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(format_table(
        ["algorithm", "max abs error", "messages", "bytes"],
        [[k, f"{v[0]:.2e}", v[1], v[2]] for k, v in out.items()],
        title="All-reduce algorithms, functional run (12 ranks, 2048 floats)"))
    for name, (err, _, _) in out.items():
        assert err < 1e-3, name


def test_cost_model_comparison(benchmark, emit):
    def run():
        node = SUMMIT.node
        rows = []
        for nodes in (16, 256, 4560):
            gpus = nodes * 6
            flat_ring = ring_allreduce_time(gpus, GRAD_BYTES, SUMMIT.interconnect)
            flat_tree = tree_allreduce_time(gpus, GRAD_BYTES, SUMMIT.interconnect)
            hybrid = hierarchical_allreduce_time(
                nodes, GRAD_BYTES, node.nvlink, SUMMIT.interconnect,
                gpus_per_node=6, parallel_devices=4)
            rows.append((nodes, gpus, flat_ring, flat_tree, hybrid))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(format_table(
        ["nodes", "GPUs", "flat ring (s)", "flat tree (s)", "hybrid (s)"],
        [[n, g, f"{r:.4f}", f"{t:.4f}", f"{h:.4f}"]
         for n, g, r, t, h in rows],
        title="All-reduce cost models on Summit (86 MB gradients)"))
    # At full scale the hybrid wins against both flat algorithms.
    _, _, flat_ring, flat_tree, hybrid = rows[-1]
    assert hybrid < flat_tree
    assert hybrid < flat_ring


def test_engine_adaptive_exchange(benchmark, emit):
    """Acceptance: fusion cuts collectives >= 4x on the climate model's
    gradient set, and the autotuned choice never loses to the worst fixed
    algorithm at any benched size."""
    spec = _gradient_spec()
    dense, topk, margin = benchmark.pedantic(
        lambda: _engine_runs(spec), rounds=1, iterations=1)
    reduction = len(spec) / dense.fusion.num_collectives
    emit(format_table(
        ["metric", "value"],
        [["gradient tensors", str(len(spec))],
         ["fused collectives", str(dense.fusion.num_collectives)],
         ["collective reduction", f"{reduction:.1f}x"],
         ["autotune margin (worst/settled)", f"{margin:.2f}x"],
         ["top-k wire bytes", f"{topk.wire_bytes / 1e6:.2f} MB"],
         ["top-k compression", f"{topk.compression_ratio:.1f}x"],
         ["overlap fraction", f"{dense.overlap_fraction:.2f}"]],
        title="Adaptive engine on the Tiramisu gradient set (4 ranks)"))
    assert reduction >= 4.0
    assert margin >= 1.0
    assert topk.compression_ratio > 10.0


def collect(profile: str = "quick"):
    """Machine-readable metrics for the ``allreduce`` suite.

    Cost-model outputs are deterministic functions of the Summit machine
    description, and the engine ratios are deterministic functions of the
    model's tensor sizes over the simulated wire, so they all gate with a
    tight band: any drift means the model or the engine changed.
    """
    from runner import Metric

    nodes = 4560
    flat_ring = ring_allreduce_time(nodes * 6, GRAD_BYTES, SUMMIT.interconnect)
    flat_tree = tree_allreduce_time(nodes * 6, GRAD_BYTES, SUMMIT.interconnect)
    hybrid = hierarchical_allreduce_time(
        nodes, GRAD_BYTES, SUMMIT.node.nvlink, SUMMIT.interconnect,
        gpus_per_node=6, parallel_devices=4)
    spec = _gradient_spec()
    dense, topk, autotune_margin = _engine_runs(spec)
    return [
        Metric(name="allreduce.hybrid_time_s", value=hybrid, unit="s",
               higher_is_better=False, gate=True, tolerance=0.001,
               note="deterministic cost model, 4560 Summit nodes"),
        Metric(name="allreduce.hybrid_vs_ring_speedup",
               value=flat_ring / hybrid, unit="x",
               higher_is_better=True, gate=True, tolerance=0.001),
        Metric(name="allreduce.hybrid_vs_tree_speedup",
               value=flat_tree / hybrid, unit="x",
               higher_is_better=True, gate=True, tolerance=0.001),
        Metric(name="allreduce.engine_collective_reduction",
               value=len(spec) / dense.fusion.num_collectives, unit="x",
               higher_is_better=True, gate=True, tolerance=0.001,
               note="tensors per fused collective, Tiramisu gradient set"),
        Metric(name="allreduce.engine_bytes_ratio",
               value=topk.compression_ratio, unit="x",
               higher_is_better=True, gate=True, tolerance=0.001,
               note="dense bytes / wire bytes, top-k 1%"),
        Metric(name="allreduce.engine_autotune_margin",
               value=autotune_margin, unit="x",
               higher_is_better=True, gate=True, tolerance=0.001,
               note="worst fixed algorithm / settled choice, measured"),
        Metric(name="allreduce.engine_weak_scaling_margin",
               value=_weak_scaling_margin(), unit="x",
               higher_is_better=True, gate=True, tolerance=0.001,
               note="worst fixed / model-selected across Summit sizes"),
    ]
