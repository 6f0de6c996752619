"""The campaign orchestration service: one event loop over every layer.

This is the Balsam-style control plane the ROADMAP's million-user story
needs: a deterministic discrete-event loop that drives jobs from
``CREATED`` to a terminal state through the persistent store
(:mod:`.store`), the fair-share scheduler (:mod:`.scheduler`), the site
launcher and its cost models (:mod:`.launcher`), checkpoint/restart
(:mod:`.runtime` over :class:`repro.core.CheckpointManager`), and seeded
fault injection (:class:`repro.resilience.FaultInjector`).

Lifecycle segments (state = the phase just *completed*)::

    submit ──staging──► STAGED_IN ──preprocess──► PREPROCESSED ──queue──►
    RUNNING ──► RUN_DONE/RUN_ERROR ──► DONE / RESTARTING / FAILED

Fault model — the campaign reading of a :class:`FaultPlan`:

* ``rank_fail@T:rank=J`` kills the job with *submit index* ``J`` once at
  scheduler tick ``T`` (or, if it is not yet running, as soon as it
  launches).  The kill lands mid-run — at half the remaining runtime — so
  the restart path has real progress to lose and a checkpoint to resume
  from.  The killed job transitions ``RUNNING → RUN_ERROR → RESTARTING``,
  resumes from its latest checkpoint (:meth:`CheckpointManager.latest_step`
  via the runtime), relaunches on ``RESTART_SHRINK`` fewer nodes
  (mirroring :meth:`DistributedTrainer.shrink`), and must finish.
* ``straggler@T:rank=J:factor=F`` stretches every event the service
  schedules for job ``J`` by ``F`` through the event queue's existing
  ``perturb_delay`` hook — a slow node makes the whole run late.

Everything is virtual-time deterministic: one (workload, plan, seed)
triple yields a byte-identical transition log, which the tests pin.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from ..hpc.events import EventQueue
from ..resilience.faults import FaultInjector, FaultPlan
from ..telemetry import SimulatedClock, get_active
from .launcher import SiteLauncher
from .runtime import MemoryRuntime
from .scheduler import FairShareScheduler
from .store import JobStore
from .report import CampaignReport, summarize

__all__ = ["ServiceConfig", "CampaignService"]

RESTART_SHRINK = 1          # nodes dropped per elastic restart
KILL_AT_FRACTION = 0.5      # where in the remaining run a kill lands


@dataclass(frozen=True)
class ServiceConfig:
    """Orchestration-loop policy knobs."""

    ckpt_every_s: float = 120.0      # virtual checkpoint cadence while RUNNING

    def __post_init__(self):
        if self.ckpt_every_s <= 0:
            raise ValueError("ckpt_every_s must be positive")


@dataclass
class _Run:
    """Bookkeeping for one launch attempt (invalidates stale events)."""

    token: int
    start_s: float
    duration_s: float
    nodes: int
    from_step: int
    kill_scheduled: bool = field(default=False)


class CampaignService:
    """Drives submitted jobs to terminal states over virtual time."""

    def __init__(self, site: SiteLauncher,
                 store: JobStore | None = None,
                 scheduler: FairShareScheduler | None = None,
                 runtime=None,
                 config: ServiceConfig | None = None,
                 plan: FaultPlan | None = None,
                 clock: SimulatedClock | None = None):
        self.site = site
        self.store = store if store is not None else JobStore()
        self.scheduler = scheduler or FairShareScheduler()
        self.runtime = runtime if runtime is not None else MemoryRuntime()
        self.config = config or ServiceConfig()
        self.injector = (FaultInjector(plan)
                         if plan is not None and len(plan) else None)
        self.events = EventQueue(fault_injector=self.injector)
        self.clock = clock or SimulatedClock()
        self._runs: dict[str, _Run] = {}
        self._armed_kills: set[str] = set()
        self._ticks = 0
        self._tick_pending = False
        self.checkpoints_saved = 0
        # Busy-node integral for the utilization report.
        self._busy_integral = 0.0
        self._last_busy_change = 0.0

    # -- submission --------------------------------------------------------

    def submit(self, job) -> None:
        """Register ``job`` and schedule its staging at ``submit_s``."""
        self.store.submit(job)
        self.events.schedule_at(job.submit_s,
                                lambda j=job: self._on_submitted(j))

    def run(self, until: float | None = None) -> CampaignReport:
        """Process events until the campaign drains; returns the report."""
        self.events.run(until=until)
        self.clock.advance_to(self.events.now)
        return summarize(self.store, self.scheduler, self.site,
                         makespan_s=self._makespan(),
                         busy_node_s=self._busy_integral,
                         checkpoints_saved=self.checkpoints_saved,
                         injected=(dict(self.injector.counts)
                                   if self.injector else {}))

    # -- internals ---------------------------------------------------------

    def _now(self) -> float:
        self.clock.advance_to(self.events.now)
        return self.events.now

    def _rank_of(self, job) -> int:
        """Fault-plan identity of a job: its submit index."""
        return self.store.submit_index(job.job_id)

    def _emit(self, name: str, start: float, end: float, job, **args) -> None:
        tel = get_active()
        if tel.enabled:
            tel.tracer.emit(name, start, end - start, category="campaign",
                            lane=self._rank_of(job), job=job.job_id,
                            user=job.user, **args)

    def _on_submitted(self, job) -> None:
        now = self._now()
        delay = self.site.stage_in_s(job)
        self.events.schedule(delay, lambda: self._on_staged(job, now),
                             rank=self._rank_of(job))

    def _on_staged(self, job, started: float) -> None:
        now = self._now()
        self.store.transition(job, "STAGED_IN", now, reason="stage_in done")
        self._emit("stage_in", started, now, job)
        delay = self.site.preprocess_s(job)
        self.events.schedule(delay, lambda: self._on_preprocessed(job, now),
                             rank=self._rank_of(job))

    def _on_preprocessed(self, job, started: float) -> None:
        now = self._now()
        self.store.transition(job, "PREPROCESSED", now,
                              reason="preprocess done", ready_s=now)
        self._emit("preprocess", started, now, job)
        self._request_tick()

    def _request_tick(self) -> None:
        """Coalesce tick requests: at most one scheduler pass per instant."""
        if not self._tick_pending:
            self._tick_pending = True
            self.events.schedule(0.0, self._tick)

    def _tick(self) -> None:
        self._tick_pending = False
        now = self._now()
        tick = self._ticks
        self._ticks += 1
        if self.injector is not None:
            for idx in self.injector.begin_step(tick):
                jobs = self.store.jobs()
                if 0 <= idx < len(jobs):
                    self._armed_kills.add(jobs[idx].job_id)
            self._schedule_armed_kills()
        self.scheduler.advance(now)
        # Integrate the busy-node level *before* this instant's launches.
        self._note_busy_change(now, self.site.busy_nodes)
        ready = (self.store.jobs("PREPROCESSED")
                 + self.store.jobs("RESTARTING"))
        ordered = self.scheduler.order(ready, now, self.store.submit_index)
        for job, nodes in self.site.pack(ordered):
            self._launch(job, nodes)

    def _note_busy_change(self, now: float, busy_before: int) -> None:
        self._busy_integral += busy_before * (now - self._last_busy_change)
        self._last_busy_change = now

    def _launch(self, job, nodes: int) -> None:
        now = self.events.now
        duration = self.site.run_s(job, nodes)
        token = job.attempt + 1
        self.store.transition(job, "RUNNING", now, reason="launched",
                              nodes_allocated=nodes, attempt=token)
        run = _Run(token=token, start_s=now, duration_s=duration,
                   nodes=nodes, from_step=job.resume_step)
        self._runs[job.job_id] = run
        rank = self._rank_of(job)
        tel = get_active()
        if tel.enabled:
            tel.metrics.counter("campaign.launches", kind=job.kind).inc()
            tel.metrics.gauge("campaign.busy_nodes").set(self.site.busy_nodes)
        self.events.schedule(duration,
                             lambda: self._on_complete(job, token),
                             rank=rank)
        # Periodic checkpoints while the run is in flight.
        k = 1
        while k * self.config.ckpt_every_s < duration:
            self.events.schedule(k * self.config.ckpt_every_s,
                                 lambda j=job, t=token: self._on_checkpoint(j, t),
                                 rank=rank)
            k += 1
        if job.job_id in self._armed_kills:
            self._schedule_kill(job, run)

    def _progress(self, job, run: _Run, now: float) -> int:
        """Progress units durable-in-flight at virtual time ``now``."""
        if run.duration_s <= 0:
            return job.steps_total
        frac = min(1.0, max(0.0, (now - run.start_s) / run.duration_s))
        return run.from_step + int(frac * (job.steps_total - run.from_step))

    def _on_checkpoint(self, job, token: int) -> None:
        now = self._now()
        run = self._runs.get(job.job_id)
        if run is None or run.token != token or job.state != "RUNNING":
            return   # stale event from a superseded attempt
        step = self._progress(job, run, now)
        self.runtime.save(job, step)
        self.checkpoints_saved += 1
        tel = get_active()
        if tel.enabled:
            tel.metrics.counter("campaign.checkpoints").inc()
            tel.tracer.instant("job_checkpoint", category="campaign",
                               job=job.job_id, step=step)

    def _on_complete(self, job, token: int) -> None:
        now = self._now()
        run = self._runs.get(job.job_id)
        if run is None or run.token != token or job.state != "RUNNING":
            return
        self._note_busy_change(now, self.site.busy_nodes)
        self.site.release(job)
        self.scheduler.advance(now)
        self.scheduler.charge(job.user, run.nodes * (now - run.start_s))
        self.store.transition(job, "RUN_DONE", now, reason="run complete",
                              steps_done=job.steps_total)
        self.store.transition(job, "DONE", now)
        self._emit("job_run", run.start_s, now, job, kind=job.kind,
                   nodes=run.nodes, attempt=token)
        del self._runs[job.job_id]
        self._request_tick()

    # -- fault path --------------------------------------------------------

    def _schedule_armed_kills(self) -> None:
        for job_id in sorted(self._armed_kills):
            job = self.store.get(job_id)
            run = self._runs.get(job_id)
            if run is not None and job.state == "RUNNING":
                self._schedule_kill(job, run)

    def _schedule_kill(self, job, run: _Run) -> None:
        if run.kill_scheduled:
            return
        run.kill_scheduled = True
        now = self.events.now
        remaining = max(0.0, run.start_s + run.duration_s - now)
        delay = KILL_AT_FRACTION * remaining
        self.events.schedule(delay,
                             lambda t=run.token: self._on_killed(job, t))

    def _on_killed(self, job, token: int) -> None:
        now = self._now()
        run = self._runs.get(job.job_id)
        if run is None or run.token != token or job.state != "RUNNING":
            return
        self._armed_kills.discard(job.job_id)
        self._note_busy_change(now, self.site.busy_nodes)
        nodes = self.site.release(job)
        self.scheduler.advance(now)
        self.scheduler.charge(job.user, nodes * (now - run.start_s))
        self.store.transition(job, "RUN_ERROR", now, reason="rank_fail",
                              steps_done=self._progress(job, run, now))
        self._emit("job_run", run.start_s, now, job, kind=job.kind,
                   nodes=run.nodes, attempt=token, killed=True)
        del self._runs[job.job_id]
        tel = get_active()
        if tel.enabled:
            tel.metrics.counter("campaign.kills").inc()
        if job.restarts >= job.max_restarts:
            self.store.transition(job, "FAILED", now,
                                  reason="restart budget exhausted")
        else:
            resume = self.runtime.resume_step(job)
            new_nodes = max(job.min_nodes,
                            nodes - RESTART_SHRINK)
            self.store.transition(job, "RESTARTING", now,
                                  reason="elastic restart",
                                  resume_step=resume,
                                  nodes_allocated=new_nodes,
                                  ready_s=now)
            if tel.enabled:
                tel.metrics.counter("campaign.restarts").inc()
                tel.tracer.instant("job_restart", category="campaign",
                                   job=job.job_id, resume_step=resume,
                                   nodes=new_nodes)
        self._request_tick()

    # -- reporting helpers -------------------------------------------------

    def _makespan(self) -> float:
        ends = [j.finished_s() for j in self.store if j.finished_s() is not None]
        return max(ends) if ends else self.events.now
