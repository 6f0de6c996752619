"""End-to-end serving: virtual-time event loop, faults, SLOs, telemetry."""
import numpy as np
import pytest

from repro.core.inference import predict_tiled, sliding_window_logits
from repro.framework import Tensor
from repro.framework.module import Module
from repro.resilience import FaultPlan
from repro.serve import (FixedServiceTime, InferenceRequest, InferenceServer,
                         ServeConfig, WorkloadConfig, summarize,
                         synth_workload)
from repro.telemetry import Telemetry, activate


class MeanModel(Module):
    """Elementwise model: logits (v, -v) — bitwise batch-invariant."""

    def forward(self, x):
        data = x.data.astype(np.float32)
        return Tensor(np.stack([data[:, 0], -data[:, 0]], axis=1))


CONFIG = ServeConfig(window_hw=(8, 8), stride_hw=(4, 4), num_replicas=2,
                     max_batch_size=4, max_wait_s=0.002, forward_batch=16)
SERVICE = FixedServiceTime(per_batch_s=0.0, per_window_s=0.0005)


def burst(n, t=0.0, hw=(16, 16), lane="interactive", seed=0):
    rng = np.random.default_rng(seed)
    return [InferenceRequest(i, rng.standard_normal(
        (2, *hw)).astype(np.float32), lane=lane, arrival_s=t)
        for i in range(n)]


def run(config=CONFIG, requests=None, plan=None, service=SERVICE,
        workload=None):
    server = InferenceServer(MeanModel, config, plan=plan,
                             service_model=service)
    if requests is None:
        requests = synth_workload(workload or WorkloadConfig(
            num_requests=24, rate_rps=2000.0, image_hw=(16, 16),
            channels=2, seed=5))
    responses = server.serve(requests)
    return server, requests, responses


class TestHappyPath:
    def test_every_request_gets_one_response_in_id_order(self):
        _, requests, responses = run()
        assert [r.request_id for r in responses] == sorted(
            r.request_id for r in requests)
        assert all(r.status == "served" for r in responses)

    def test_served_maps_match_offline_tiled_inference(self):
        server, requests, responses = run()
        model = MeanModel()
        for req, resp in list(zip(requests, responses))[:6]:
            expected = predict_tiled(model, req.image, (8, 8), (4, 4))
            np.testing.assert_array_equal(resp.class_map, expected)
        assert server.cache.stats.lookups > 0

    def test_offline_call_reuses_served_cache_entries(self):
        server, requests, _ = run()
        misses = server.cache.stats.misses
        for req in requests[:3]:
            sliding_window_logits(MeanModel(), req.image, (8, 8), (4, 4),
                                  cache=server.cache)
        assert server.cache.stats.misses == misses

    def test_lone_request_is_served_when_deadline_rounds_short(self):
        # Regression: with (t + 0.002) - t < 0.002 the age trigger never
        # fired, the loop gave up and the result list raised KeyError.
        t = 2.5
        assert (t + CONFIG.max_wait_s) - t < CONFIG.max_wait_s
        _, _, responses = run(requests=burst(1, t=t))
        assert [r.status for r in responses] == ["served"]

    def test_stalled_loop_names_the_stranded_requests(self, monkeypatch):
        from repro.errors import ReproError
        from repro.serve.batcher import MicroBatcher
        monkeypatch.setattr(MicroBatcher, "ready", lambda self, now: False)
        with pytest.raises(ReproError, match=r"stranded request ids: \[0, 1\]"):
            run(requests=burst(2))

    def test_micro_batching_coalesces_bursts(self):
        _, _, responses = run(requests=burst(8))
        assert {r.batch_size for r in responses} == {4}
        assert all(r.latency_s > 0 for r in responses)

    def test_interactive_lane_served_ahead_of_bulk(self):
        config = ServeConfig(window_hw=(8, 8), stride_hw=(4, 4),
                             num_replicas=1, max_batch_size=4,
                             max_wait_s=0.002, forward_batch=16)
        reqs = burst(4, lane="bulk", seed=1) + [
            InferenceRequest(10 + i, r.image, lane="interactive",
                             arrival_s=0.0)
            for i, r in enumerate(burst(4, seed=2))]
        server, _, responses = run(config=config, requests=reqs)
        report = summarize(responses, server)
        assert report.lanes["interactive"].p50_ms < report.lanes[
            "bulk"].p50_ms

    def test_deterministic_given_fixed_service_model(self):
        _, _, first = run()
        _, _, second = run()
        assert [(r.status, r.latency_s, r.replica_id) for r in first] == \
               [(r.status, r.latency_s, r.replica_id) for r in second]


class TestFaultsEndToEnd:
    def test_replica_kill_mid_burst_loses_no_admitted_request(self):
        plan = FaultPlan.parse("rank_fail@1:rank=1", seed=0)
        server, requests, responses = run(requests=burst(16), plan=plan)
        report = summarize(responses, server)
        assert report.replica_failures == 1
        assert report.alive_replicas == [0]
        assert report.served == len(requests)
        assert report.lost_admitted == 0
        assert report.dispatch_retries >= 1
        # Survivor's answers are still correct.
        model = MeanModel()
        victim = responses[-1]
        np.testing.assert_array_equal(
            victim.class_map,
            predict_tiled(model, requests[victim.request_id].image,
                          (8, 8), (4, 4)))

    def test_total_pool_loss_fails_loudly_not_silently(self):
        config = ServeConfig(window_hw=(8, 8), stride_hw=(4, 4),
                             num_replicas=1, max_batch_size=4,
                             max_wait_s=0.002, forward_batch=16)
        plan = FaultPlan.parse("rank_fail@0:rank=0", seed=0)
        _, requests, responses = run(config=config, requests=burst(8),
                                     plan=plan)
        assert len(responses) == len(requests)
        assert all(r.status == "failed" for r in responses)
        assert all(r.error for r in responses)


class TestOverload:
    def test_low_load_sheds_nothing(self):
        workload = WorkloadConfig(num_requests=16, rate_rps=50.0,
                                  image_hw=(16, 16), channels=2, seed=1)
        server, _, responses = run(workload=workload)
        report = summarize(responses, server)
        assert report.shed == 0 and report.lost_admitted == 0

    def test_overload_sheds_queue_full_and_loses_nothing_admitted(self):
        config = ServeConfig(window_hw=(8, 8), stride_hw=(4, 4),
                             num_replicas=1, max_batch_size=2,
                             max_wait_s=0.001, forward_batch=16,
                             max_depth=3)
        service = FixedServiceTime(per_batch_s=0.0, per_window_s=0.01)
        _, requests, responses = run(
            config=config, requests=burst(32), service=service)
        server = None
        shed = [r for r in responses if r.status == "shed"]
        served = [r for r in responses if r.status == "served"]
        assert shed and served
        assert all(r.shed_reason == "queue_full" for r in shed)
        assert len(shed) + len(served) == len(requests)

    def test_slo_shedding_kicks_in_once_estimator_warm(self):
        config = ServeConfig(window_hw=(8, 8), stride_hw=(4, 4),
                             num_replicas=1, max_batch_size=2,
                             max_wait_s=0.001, forward_batch=16,
                             max_depth=64,
                             slo_s=(("interactive", 0.005),))
        service = FixedServiceTime(per_batch_s=0.0, per_window_s=0.01)
        # Two waves: the first warms the EWMA, the second hits the SLO gate.
        reqs = burst(4, t=0.0) + [
            InferenceRequest(100 + i, r.image, lane="interactive",
                             arrival_s=0.5)
            for i, r in enumerate(burst(8, seed=3))]
        server, _, responses = run(config=config, requests=reqs,
                                   service=service)
        report = summarize(responses, server)
        assert report.shed_by_reason.get("slo", 0) > 0
        assert report.lost_admitted == 0

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_wait_estimate_counts_every_queued_window(self, k):
        # 16x16 snapshots in 8x8 windows at stride 4: 9 windows each, so
        # k queued requests wait 9k windows, shared across the replicas.
        server = InferenceServer(MeanModel, CONFIG, service_model=SERVICE)
        for req in burst(k):
            assert server.queue.offer(req, 0.0) == (True, None)
        server.admission.observe_service(0.002)
        ewma = server.admission.ewma_window_s
        assert server.admission.estimated_wait_s(
            server.queue.queued_windows) == pytest.approx(
                9 * k * ewma / CONFIG.num_replicas)


class TestTelemetryIntegration:
    def test_counters_histograms_and_spans_land_on_active_session(self):
        tel = Telemetry()
        plan = FaultPlan.parse("rank_fail@1:rank=1", seed=0)
        with activate(tel):
            server, _, responses = run(requests=burst(12), plan=plan)
        counters = tel.metrics.snapshot()["counters"]

        def total(name):
            return sum(v for k, v in counters.items()
                       if k == name or k.startswith(name + "{"))

        assert total("serve.admitted") == 12
        assert total("serve.served") == 12
        assert total("serve.batches") == server.batcher.batches_formed
        assert total("serve.replica_failures") == 1
        assert total("serve.cache.misses") > 0
        names = {s.name for s in tel.tracer.spans()}
        assert {"serve_batch", "request", "replica_failed"} <= names
        # Request spans carry virtual-time durations matching the response.
        req_spans = [s for s in tel.tracer.spans() if s.name == "request"]
        assert len(req_spans) == 12

    def test_runs_clean_without_active_session(self):
        _, _, responses = run(requests=burst(4))
        assert all(r.status == "served" for r in responses)


class TestLoadGenerator:
    def test_deterministic_for_same_seed(self):
        cfg = WorkloadConfig(num_requests=12, seed=9)
        a, b = synth_workload(cfg), synth_workload(cfg)
        assert [(r.arrival_s, r.lane) for r in a] == \
               [(r.arrival_s, r.lane) for r in b]
        np.testing.assert_array_equal(a[5].image, b[5].image)

    def test_seed_changes_stream(self):
        a = synth_workload(WorkloadConfig(num_requests=12, seed=0))
        b = synth_workload(WorkloadConfig(num_requests=12, seed=1))
        assert [r.arrival_s for r in a] != [r.arrival_s for r in b]

    def test_repeat_fraction_reuses_snapshots(self):
        reqs = synth_workload(WorkloadConfig(num_requests=64,
                                             repeat_fraction=0.5, seed=2))
        unique = {r.image.tobytes() for r in reqs}
        assert len(unique) < len(reqs)
        none_shared = synth_workload(WorkloadConfig(
            num_requests=16, repeat_fraction=0.0, seed=2))
        assert len({r.image.tobytes() for r in none_shared}) == 16

    def test_arrivals_strictly_increase(self):
        reqs = synth_workload(WorkloadConfig(num_requests=32, seed=4))
        times = [r.arrival_s for r in reqs]
        assert times == sorted(times) and times[0] > 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            WorkloadConfig(num_requests=0)
        with pytest.raises(ValueError):
            WorkloadConfig(rate_rps=0.0)
        with pytest.raises(ValueError):
            WorkloadConfig(repeat_fraction=1.5)


class TestReport:
    def test_summarize_accounting(self):
        server, requests, responses = run(requests=burst(8))
        report = summarize(responses, server)
        assert report.offered == 8
        assert report.served == 8
        assert report.admitted == 8
        assert report.throughput_rps > 0
        assert report.mean_batch_size == 4.0
        doc = report.as_dict()
        assert doc["lost_admitted"] == 0
        assert 0.0 <= doc["cache_hit_rate"] <= 1.0
        assert doc["lanes"]["interactive"]["served"] == 8

    def test_request_image_must_be_chw(self):
        with pytest.raises(ValueError):
            InferenceRequest(0, np.zeros((4, 4), np.float32))
