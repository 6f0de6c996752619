"""The serve fleet: autoscaler policy, routing, scale events, e2e drill."""
import numpy as np
import pytest

from repro.resilience import FaultPlan
from repro.serve import (FleetConfig, FleetServer, Replay, ReplayConfig,
                         replay_workload, summarize_fleet)
from repro.serve.fleet import Autoscaler, AutoscalerConfig, FleetRequest
from repro.telemetry import Telemetry, activate
from repro.telemetry.streaming import WindowSummary


def window(series, end, *, mean=0.0, rate=0.0, last=0.0, total=0.0):
    return WindowSummary(series=series, start=end - 1.0, end=end, count=1,
                         total=total, mean=mean, minimum=mean, maximum=mean,
                         last=last, rate=rate, median=mean, p16=mean,
                         p84=mean)


class TestAutoscalerPolicy:
    def feed(self, scaler, cell, end, rps, service_ms, backlog=0.0):
        scaler.observe(window(f"fleet.arrivals{{cell={cell}}}", end,
                              rate=rps))
        scaler.observe(window(f"fleet.service_ms{{cell={cell}}}", end,
                              mean=service_ms))
        scaler.observe(window(f"fleet.queue_windows{{cell={cell}}}", end,
                              last=backlog))

    def test_grows_when_demand_exceeds_capacity(self):
        scaler = Autoscaler(AutoscalerConfig(), windows_per_request=4.0)
        for t in range(1, 6):
            self.feed(scaler, "east", float(t), rps=200.0, service_ms=4.0)
        # demand = 200 req/s * 4 windows * 4ms = 3.2 replica-equivalents.
        assert scaler.demand_replicas("east") == pytest.approx(3.2, rel=0.1)
        decision = scaler.decide("east", 6.0, current_replicas=2)
        assert decision.kind == "grow"
        assert decision.delta > 0
        assert decision.target >= 4

    def test_grow_respects_cooldown_and_step(self):
        # Cooldown 2 s, at most 2 replicas per grow decision.
        scaler = Autoscaler(AutoscalerConfig(), windows_per_request=4.0)
        for t in range(1, 6):
            self.feed(scaler, "east", float(t), rps=400.0, service_ms=4.0)
        first = scaler.decide("east", 6.0, 1)
        assert first.kind == "grow" and first.delta == 2   # capped step
        again = scaler.decide("east", 7.0, 3)
        assert again.kind == "hold"
        assert "cooling down" in again.reason

    def test_shrink_needs_hysteresis_margin(self):
        scaler = Autoscaler(AutoscalerConfig(), windows_per_request=4.0)
        for t in range(1, 8):
            self.feed(scaler, "east", float(t), rps=30.0, service_ms=4.0)
        # demand ~0.5 replicas; at 4 replicas predicted utilization ~0.12
        # sits under the shrink floor -> shrink, one replica at a time.
        decision = scaler.decide("east", 9.0, 4)
        assert decision.kind == "shrink" and decision.delta == -1
        # At 1 replica (the floor) it must hold even when idle.
        floor = scaler.decide("east", 20.0, 1)
        assert floor.kind == "hold"

    def test_backlog_counts_toward_demand(self):
        scaler = Autoscaler(AutoscalerConfig(), windows_per_request=4.0)
        for t in range(1, 4):
            self.feed(scaler, "east", float(t), rps=10.0, service_ms=4.0,
                      backlog=2000.0)
        # Steady demand is tiny but 2000 queued windows at 4ms each must
        # drain within 2s: + 4 replica-equivalents of backlog pressure.
        assert scaler.demand_replicas("east") > 3.0

    def test_cells_are_independent(self):
        scaler = Autoscaler(AutoscalerConfig(), windows_per_request=4.0)
        for t in range(1, 6):
            self.feed(scaler, "east", float(t), rps=300.0, service_ms=4.0)
            self.feed(scaler, "west", float(t), rps=5.0, service_ms=4.0)
        assert scaler.decide("east", 6.0, 1).kind == "grow"
        assert scaler.decide("west", 6.0, 1).kind == "hold"

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AutoscalerConfig(min_replicas=4, max_replicas=2)


class TestReplay:
    def test_replay_workload_is_deterministic(self):
        cfg = ReplayConfig(num_requests=5000, duration_s=60.0, seed=3)
        a, b = replay_workload(cfg), replay_workload(cfg)
        assert np.array_equal(a.arrival_s, b.arrival_s)
        assert np.array_equal(a.key, b.key)
        assert np.array_equal(a.lane, b.lane)

    def test_arrivals_sorted_and_bounded(self):
        cfg = ReplayConfig(num_requests=5000, duration_s=60.0, seed=1,
                           bursts=((20.0, 10.0, 3.0),))
        replay = replay_workload(cfg)
        assert len(replay) == 5000
        assert np.all(np.diff(replay.arrival_s) >= 0)
        assert replay.arrival_s[0] >= 0.0
        assert replay.arrival_s[-1] <= 60.0

    def test_burst_concentrates_arrivals(self):
        # The burst sits on the diurnal trough's rising edge.
        quiet = ReplayConfig(num_requests=20000, duration_s=100.0, seed=0)
        bursty = ReplayConfig(num_requests=20000, duration_s=100.0, seed=0,
                              bursts=((10.0, 20.0, 4.0),))
        q = replay_workload(quiet).arrival_s
        b = replay_workload(bursty).arrival_s
        in_burst = lambda t: (10.0 <= t) & (t < 30.0)   # noqa: E731
        assert in_burst(b).mean() > 2.0 * in_burst(q).mean()

    def test_zipf_keys_have_head_mass(self):
        replay = replay_workload(ReplayConfig(
            num_requests=50000, duration_s=60.0, snapshot_pool=1000,
            seed=2))
        _, counts = np.unique(replay.key, return_counts=True)
        top = np.sort(counts)[-10:].sum()
        assert top / len(replay) > 0.10   # top-1% of keys > 10% of traffic

    def test_from_requests_roundtrip(self):
        reqs = [FleetRequest(request_id=i, key=i % 3, lane="bulk",
                             cell="east", arrival_s=float(i), windows=2)
                for i in range(5)]
        replay = Replay.from_requests(reqs, lanes=("interactive", "bulk"),
                                      cells=("east",))
        assert len(replay) == 5
        got = replay.request(3)
        assert got.key == 0 and got.lane == "bulk" and got.windows == 2

    def test_validates_columns(self):
        with pytest.raises(ValueError):
            Replay(arrival_s=np.array([1.0, 0.5]),
                   key=np.zeros(2, dtype=np.int64),
                   lane=np.zeros(2), cell=np.zeros(2),
                   windows=np.full(2, 4),
                   lanes=("interactive",), cells=("c",))


def drill(requests=20000, duration=120.0, plan=None, sharded=True,
          cells=("east", "west"), bursts=((40.0, 20.0, 3.0),),
          autoscale=True, spillover=True, seed=7):
    replay = replay_workload(ReplayConfig(
        num_requests=requests, duration_s=duration, cells=cells,
        bursts=bursts, seed=seed))
    cfg = FleetConfig(
        cells=cells, initial_replicas=2, sharded=sharded,
        spillover=spillover, cache_budget_bytes=2 << 20,
        autoscaler=(AutoscalerConfig(max_replicas=8)
                    if autoscale else None))
    server = FleetServer(cfg, plan=plan)
    result = server.run(replay)
    return server, result, summarize_fleet(result, server, replay)


class TestFleetServer:
    def test_every_request_reaches_a_terminal_state(self):
        _, result, report = drill(requests=5000, duration=60.0, bursts=())
        assert int((result.status == 0).sum()) == 0
        assert report.offered == 5000
        assert report.served + report.shed + report.failed == 5000
        assert report.lost_admitted == 0

    def test_sharded_routing_is_key_stable(self):
        server, result, _ = drill(requests=5000, duration=60.0, bursts=(),
                                  autoscale=False)
        # With no scale events, a key served twice in one cell is served
        # by the same replica both times (the cache-affinity contract).
        replay = replay_workload(ReplayConfig(
            num_requests=5000, duration_s=60.0, cells=("east", "west"),
            seed=7))
        served = result.status == 1
        local = served & ~result.spilled
        for cell_idx in (0, 1):
            mask = local & (replay.cell == cell_idx) \
                & (result.served_cell == cell_idx)
            owners = {}
            for key, rep in zip(replay.key[mask], result.replica[mask]):
                assert owners.setdefault(int(key), int(rep)) == int(rep)

    def test_unsharded_fragments_the_cache(self):
        _, _, sharded = drill(requests=20000, seed=5)
        _, _, flat = drill(requests=20000, seed=5, sharded=False)
        assert sharded.hit_rate > flat.hit_rate

    def test_spillover_absorbs_homeless_requests(self):
        # Kill every replica in east mid-run: its traffic must flow to
        # west (spillover), not be lost or failed.
        plan = FaultPlan.parse("rank_fail@30:rank=0;rank_fail@30:rank=1")
        _, result, report = drill(requests=5000, duration=60.0, bursts=(),
                                  autoscale=False, plan=plan)
        assert report.failed == 0
        assert report.lost_admitted == 0
        assert report.cells["east"]["replicas"] == 0
        assert report.spilled > 0

    def test_no_spillover_sheds_instead(self):
        plan = FaultPlan.parse("rank_fail@30:rank=0;rank_fail@30:rank=1")
        _, _, report = drill(requests=5000, duration=60.0, bursts=(),
                             autoscale=False, spillover=False, plan=plan)
        # New arrivals to the dead cell are refused, not rerouted.  The
        # only cross-cell moves allowed are the handful of requests
        # already admitted at kill time (never dropped, even unsharded).
        assert report.shed > 0
        assert report.spilled < 10
        assert report.spilled < report.shed
        assert report.lost_admitted == 0

    def test_total_fleet_loss_fails_loudly(self):
        plan = FaultPlan.parse(";".join(
            f"rank_fail@30:rank={r}" for r in range(4)))
        _, result, report = drill(requests=5000, duration=60.0, bursts=(),
                                  autoscale=False, plan=plan)
        assert report.failed > 0
        assert report.lost_admitted == 0          # failed, never silent
        assert int((result.status == 0).sum()) == 0

    def test_run_is_deterministic(self):
        _, a, _ = drill(requests=8000)
        _, b, _ = drill(requests=8000)
        assert np.array_equal(a.status, b.status)
        assert np.array_equal(a.completed_s, b.completed_s, equal_nan=True)
        assert np.array_equal(a.replica, b.replica)

    def test_replay_vocabulary_must_match(self):
        replay = replay_workload(ReplayConfig(
            num_requests=10, duration_s=1.0, cells=("only",)))
        server = FleetServer(FleetConfig(cells=("east", "west")))
        with pytest.raises(ValueError):
            server.run(replay)

    def test_slo_for_unknown_lane_rejected(self):
        # A typo'd lane would otherwise run with no SLO at all.
        with pytest.raises(ValueError, match="unknown lane"):
            FleetConfig(slo_s=(("interactve", 0.1),))


class TestScaleEvents:
    def test_e2e_burst_scaleout_and_kill(self):
        """The acceptance drill: diurnal+burst replay, scale-out, kill.

        Asserts the ISSUE's acceptance criteria: every scale-out remaps
        <= 1.5/N of sampled cache keys, the warm-tile hit rate recovers
        to >= 90% of its pre-scale level within the drill, and a
        mid-burst replica kill loses zero admitted requests.
        """
        plan = FaultPlan.parse("rank_fail@50:rank=0")
        server, _, report = drill(plan=plan)
        grows = [e for e in report.scale_events if e.kind == "grow"]
        kills = [e for e in report.scale_events if e.kind == "kill"]
        assert grows, "burst never triggered a scale-out"
        assert len(kills) == 1
        for event in grows:
            n = event.replicas_after
            assert event.remap_fraction <= 1.5 / n, (
                f"grow at t={event.t} remapped {event.remap_fraction:.3f}"
                f" with {n} replicas (bound {1.5 / n:.3f})")
        # Warm-tile survival: hit rate back to >= 90% of pre-scale
        # (recovery fields are filled by summarize_fleet's trace scan).
        recovered = [e for e in grows if e.recovered_s is not None]
        assert recovered, "hit rate never recovered after scale-out"
        for event in recovered:
            assert event.recovered_s > event.t
            assert event.recovery_hit_rate >= 0.9 * event.pre_hit_rate
        # The kill invariant: zero admitted requests lost.
        assert report.lost_admitted == 0
        assert report.failed == 0

    def test_kill_requeues_inflight_to_survivors(self):
        plan = FaultPlan.parse("rank_fail@45:rank=0")
        server, result, report = drill(plan=plan)
        assert report.lost_admitted == 0
        killed = [e for e in report.scale_events if e.kind == "kill"]
        assert killed and killed[0].replica == 0
        # Nothing served by the dead replica after its death.
        served = result.status == 1
        death_t = killed[0].t
        after = served & (result.completed_s > death_t)
        assert not np.any(result.replica[after] == 0)

    def test_shrink_retires_youngest_first(self):
        server, _, report = drill()
        shrinks = [e for e in report.scale_events if e.kind == "shrink"]
        grows = [e for e in report.scale_events if e.kind == "grow"]
        if not (shrinks and grows):
            pytest.skip("this seed produced no shrink after a grow")
        # A shrink following a grow retires a grown (young) replica, not
        # one of the initial ones (ids 0..3 here).
        late = [s for s in shrinks if any(g.t < s.t and g.cell == s.cell
                                          for g in grows)]
        assert any(s.replica > 3 for s in late)

    def test_warmup_ramp_limits_new_replica_share(self):
        # While a replica is ramping, it serves only part of its shard;
        # after warm-up it owns all of it.  Compare the shares.
        plan = None
        server, result, report = drill(plan=plan)
        grows = [e for e in report.scale_events if e.kind == "grow"]
        assert grows
        # The ramp mechanic is unit-tested via ramp_fraction directly.
        from repro.serve.fleet.fleet import FleetReplica

        rep = FleetReplica(9, "east", 2, 1 << 20, added_s=10.0,
                           warmup_s=2.0)
        assert rep.ramp_fraction(10.0) == 0.0
        assert rep.ramp_fraction(11.0) == pytest.approx(0.5)
        assert rep.ramp_fraction(12.0) == 1.0
        assert rep.ramp_fraction(99.0) == 1.0


class TestFleetTelemetry:
    def test_health_alerts_fire_and_resolve(self):
        tel = Telemetry(enabled=True)
        with activate(tel):
            plan = FaultPlan.parse("rank_fail@50:rank=0")
            drill(plan=plan)
        shrunk = [a for a in tel.health.alerts
                  if a.rule == "fleet_cell_shrunk"]
        assert shrunk, "replica loss never raised fleet_cell_shrunk"
        assert any(a.state == "resolved" for a in shrunk)

    def test_fleet_metrics_published_per_cell(self):
        tel = Telemetry(enabled=True)
        with activate(tel):
            drill(requests=5000, duration=60.0, bursts=())
        counters = tel.metrics.snapshot()["counters"]
        assert counters.get("fleet.arrivals{cell=east}", 0) > 0
        assert counters.get("fleet.served{cell=west}", 0) > 0

    def test_runs_without_an_active_session(self):
        # No activated Telemetry: the fleet still autoscales off its own
        # private session and leaves the global state untouched.
        _, _, report = drill(requests=5000, duration=60.0)
        assert report.served > 0
