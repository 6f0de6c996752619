#!/usr/bin/env python
"""Serving: micro-batched, fault-tolerant inference over a replica pool.

Deploys a small Tiramisu behind the full serving stack at laptop scale:

1. generate a seeded synthetic workload (Poisson arrivals, two priority
   lanes, repeated snapshots so the tile cache earns its keep);
2. serve it through dynamic micro-batching + least-loaded replica
   routing + SLO-aware admission control, on a virtual clock;
3. kill one of the two replicas mid-burst with a FaultPlan and show the
   retry-on-survivor path losing nothing that was admitted.

Run:  python examples/serving.py
"""
import numpy as np

from repro.core.networks import Tiramisu, TiramisuConfig
from repro.resilience import FaultPlan
from repro.serve import (InferenceServer, ServeConfig, WorkloadConfig,
                         summarize, synth_workload)
from repro.telemetry import Telemetry, activate

CHANNELS = 4


def model_factory():
    return Tiramisu(
        TiramisuConfig(in_channels=CHANNELS, base_filters=8, growth=8,
                       down_layers=(2,), bottleneck_layers=2, kernel=3,
                       dropout=0.0),
        rng=np.random.default_rng(0))


def serve_once(plan=None, seed=0):
    config = ServeConfig(window_hw=(8, 8), stride_hw=(4, 4), num_replicas=2,
                         max_batch_size=8, max_wait_s=0.002,
                         forward_batch=32)
    workload = WorkloadConfig(num_requests=48, rate_rps=2000.0,
                              image_hw=(16, 16), channels=CHANNELS,
                              repeat_fraction=0.3, seed=seed)
    tel = Telemetry()
    with activate(tel):
        server = InferenceServer(model_factory, config, plan=plan)
        responses = server.serve(synth_workload(workload))
        return summarize(responses, server)


def main():
    print("Serving 48 requests across 2 replicas (micro-batch 8) ...")
    report = serve_once()
    print(f"  served {report.served}/{report.offered}, "
          f"shed {report.shed}, failed {report.failed}")
    print(f"  throughput {report.throughput_rps:,.0f} req/s, "
          f"mean batch {report.mean_batch_size:.1f}")
    for lane, summary in report.lanes.items():
        print(f"  {lane}: p50 {summary['p50_ms']:.1f} ms, "
              f"p99 {summary['p99_ms']:.1f} ms")
    print(f"  cache hit rate {report.cache['hit_rate'] * 100:.1f}%")

    print("Again, killing replica 1 at the second dispatch ...")
    faulty = serve_once(plan=FaultPlan.parse("rank_fail@1:rank=1", seed=0))
    print(f"  replica failures: {faulty.replica_failures} "
          f"(survivors: {faulty.alive_replicas}, "
          f"{faulty.dispatch_retries} dispatch retries)")
    print(f"  served {faulty.served}/{faulty.offered}, "
          f"failed {faulty.failed}, "
          f"admitted-but-lost: {faulty.lost_admitted}")
    assert faulty.lost_admitted == 0, "an admitted request was lost"
    assert faulty.failed == 0, "a request failed with a replica alive"
    print("No admitted request lost.")


if __name__ == "__main__":
    main()
