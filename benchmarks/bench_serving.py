"""Serving throughput: micro-batched vs per-request dispatch.

The claim under test: coalescing concurrent requests into micro-batches
(and stacking their windows into one model call) buys >= 3x requests/s
over per-request serving at batch size 8 — the batching win that makes
paper-scale inference ("images with millions of pixels", many clients)
affordable.  Latency percentiles and the tile-cache hit rate come from
the same telemetry counters the server exposes in production.

Timing is honest where it matters: virtual service time per batch is the
*measured* wall time of the real Tiramisu forwards, so the reported
requests/s ratio reflects actual compute saved, not simulator fiat.
"""
import numpy as np
import pytest

from repro.core.networks import Tiramisu, TiramisuConfig
from repro.perf import format_table
from repro.serve import (InferenceServer, ServeConfig, WorkloadConfig,
                         summarize, synth_workload)
from repro.telemetry import Telemetry, activate

REQUESTS = 64
CHANNELS = 4
WORKLOAD = WorkloadConfig(num_requests=REQUESTS, rate_rps=1e5,
                          image_hw=(16, 16), channels=CHANNELS,
                          repeat_fraction=0.25, seed=0)

MODES = {
    # Per-request: every request dispatches alone, one window per forward.
    "per-request": dict(max_batch_size=1, forward_batch=1),
    # Micro-batched: 8 requests coalesce, windows stack 32 per forward.
    "micro-batch 8": dict(max_batch_size=8, forward_batch=32),
}


def model_factory():
    return Tiramisu(
        TiramisuConfig(in_channels=CHANNELS, base_filters=8, growth=8,
                       down_layers=(2,), bottleneck_layers=2,
                       kernel=3, dropout=0.0),
        rng=np.random.default_rng(0))


def serve_mode(**overrides):
    config = ServeConfig(window_hw=(8, 8), stride_hw=(4, 4),
                         num_replicas=1, max_wait_s=0.0005,
                         max_depth=REQUESTS, **overrides)
    tel = Telemetry()
    with activate(tel):
        server = InferenceServer(model_factory, config)
        responses = server.serve(synth_workload(WORKLOAD))
        report = summarize(responses, server)
    counters = tel.metrics.snapshot()["counters"]
    hits = counters.get("serve.cache.hits", 0)
    misses = counters.get("serve.cache.misses", 0)
    hit_rate = hits / (hits + misses) if hits + misses else 0.0
    return report, hit_rate


def test_micro_batching_speedup(benchmark, emit):
    def run():
        return {name: serve_mode(**knobs) for name, knobs in MODES.items()}

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for name, (report, hit_rate) in results.items():
        lane = report.lanes["interactive"]
        rows.append([name, f"{report.throughput_rps:,.0f}",
                     f"{report.mean_batch_size:.1f}",
                     f"{lane['p50_ms']:.2f}", f"{lane['p99_ms']:.2f}",
                     f"{hit_rate * 100:.1f}"])
    base, _ = results["per-request"]
    fast, _ = results["micro-batch 8"]
    speedup = fast.throughput_rps / base.throughput_rps
    emit(format_table(
        ["mode", "req/s", "mean batch", "p50 ms", "p99 ms", "cache hit %"],
        rows,
        title=f"Serving throughput - {REQUESTS} requests, 1 replica, "
              f"16x16 snapshots, 8x8 windows (speedup {speedup:.2f}x)"))
    for report, _ in results.values():
        assert report.served == REQUESTS
        assert report.shed == 0 and report.failed == 0
    assert fast.mean_batch_size > 4.0       # batching actually engaged
    # The acceptance bar: >= 3x requests/s from micro-batching alone.
    assert speedup >= 3.0, f"micro-batching speedup only {speedup:.2f}x"


def test_cache_warm_repeat_traffic(benchmark, emit):
    """A second pass of the same workload is served mostly from cache."""

    def run():
        config = ServeConfig(window_hw=(8, 8), stride_hw=(4, 4),
                             num_replicas=1, max_batch_size=8,
                             forward_batch=32, max_wait_s=0.0005,
                             max_depth=REQUESTS)
        tel = Telemetry()
        with activate(tel):
            server = InferenceServer(model_factory, config)
            cold = summarize(server.serve(synth_workload(WORKLOAD)), server)
            cold_stats = dict(server.cache.stats.as_dict())
            warm_reqs = synth_workload(WORKLOAD)
            for r in warm_reqs:
                r.request_id += REQUESTS
            warm = summarize(server.serve(warm_reqs), server)
        return cold, cold_stats, warm, server.cache.stats.as_dict()

    cold, cold_stats, warm, total_stats = benchmark.pedantic(
        run, rounds=1, iterations=1)
    warm_hits = total_stats["hits"] - cold_stats["hits"]
    warm_misses = total_stats["misses"] - cold_stats["misses"]
    warm_rate = warm_hits / (warm_hits + warm_misses)
    emit(format_table(
        ["pass", "req/s", "cache hit rate"],
        [["cold", f"{cold.throughput_rps:,.0f}",
          f"{cold_stats['hit_rate'] * 100:.1f}%"],
         ["warm (same workload)", f"{warm.throughput_rps:,.0f}",
          f"{warm_rate * 100:.1f}%"]],
        title="Tile cache - cold vs warm pass over the same 64 requests"))
    assert warm.served == REQUESTS
    # Every warm window is already cached: the second pass runs zero model
    # forwards.  (Wall-clock throughput is not asserted — at this tiny
    # model size content-hashing costs rival the saved forwards.)
    assert warm_misses == 0
    assert warm_rate == pytest.approx(1.0)


def collect(profile: str = "quick"):
    """Machine-readable metrics for the ``serving`` suite.

    The gated metric is the micro-batching speedup *ratio* (both sides run
    on the same host in the same process); absolute requests/s and the
    cache hit rate are context.
    """
    from runner import Metric

    results = {name: serve_mode(**knobs) for name, knobs in MODES.items()}
    base, _ = results["per-request"]
    fast, hit_rate = results["micro-batch 8"]
    return [
        Metric(name="serving.micro_batch_speedup",
               value=fast.throughput_rps / base.throughput_rps, unit="x",
               higher_is_better=True, gate=True, tolerance=0.40,
               note="micro-batch 8 vs per-request, 64 requests, 1 replica"),
        Metric(name="serving.micro_batch_rps", value=fast.throughput_rps,
               unit="req/s", higher_is_better=True, gate=False),
        Metric(name="serving.mean_batch_size", value=fast.mean_batch_size,
               unit="req", higher_is_better=True, gate=True, tolerance=0.40),
        Metric(name="serving.cache_hit_rate", value=hit_rate, unit="",
               higher_is_better=True, gate=False),
    ]
