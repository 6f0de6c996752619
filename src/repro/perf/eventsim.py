"""Event-driven simulation of a synchronous distributed training run.

The analytic model (:mod:`repro.perf.scaling`) gives expected step times;
this module simulates the *dynamics*: every rank draws a stochastic compute
time per step (log-normal jitter), the all-reduce starts when the slowest
rank finishes (synchronous SGD's barrier), gradient lag overlaps part of
the exchange with the next step; the input pipeline is assumed to keep up.
The output is a per-(step, rank) sample-count matrix and per-step times —
exactly what the paper's Section VI statistics pipeline consumes, so the
sustained-throughput median and central-68% CI (the Figure 4 error bars)
come out of :func:`repro.perf.stats.sustained_throughput`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..hpc.events import EventQueue
from .stats import ThroughputStats, sustained_throughput

__all__ = ["TrainingRunConfig", "TrainingRunResult", "simulate_training_run"]


@dataclass(frozen=True)
class TrainingRunConfig:
    """Inputs to the dynamic run simulation."""

    ranks: int
    steps: int
    compute_time_s: float            # mean per-rank step compute
    compute_jitter: float = 0.03     # log-normal sigma of compute time
    allreduce_time_s: float = 0.0    # full exchange duration
    overlap_fraction: float = 0.9    # hidden behind next step's compute (lag)
    batch_per_rank: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.ranks < 1 or self.steps < 1:
            raise ValueError("ranks and steps must be >= 1")
        if self.compute_time_s <= 0:
            raise ValueError("compute time must be positive")
        if not 0.0 <= self.overlap_fraction <= 1.0:
            raise ValueError("overlap fraction must be in [0, 1]")


@dataclass
class TrainingRunResult:
    """Per-step outcome of a simulated run."""

    step_times: np.ndarray            # (steps,)
    samples_per_step: np.ndarray      # (steps, ranks)
    barrier_waits: np.ndarray         # (steps,) slowest-minus-mean compute

    def sustained(self) -> ThroughputStats:
        return sustained_throughput(self.samples_per_step, self.step_times)

    @property
    def total_time_s(self) -> float:
        return float(self.step_times.sum())

    def efficiency(self, ideal_step_s: float) -> float:
        return ideal_step_s / float(np.median(self.step_times))


def simulate_training_run(config: TrainingRunConfig,
                          telemetry=None) -> TrainingRunResult:
    """Run the event simulation and collect the paper-style measurements.

    With an enabled telemetry session (explicit ``telemetry=`` or the
    active one), every simulated step emits *virtual-time* spans — one
    ``sim_step`` per step, one ``compute`` per rank, and the exposed
    all-reduce tail — so the dynamics land in the same Chrome trace as
    wall-clock spans.  If the session's tracer runs on a
    :class:`repro.telemetry.SimulatedClock`, the clock is advanced with the
    simulation.
    """
    # Imported lazily: repro.perf is imported by repro.telemetry.metrics.
    from ..telemetry import SimulatedClock, get_active

    tel = telemetry or get_active()
    tracer = tel.tracer if tel.enabled else None
    rng = np.random.default_rng(config.seed)
    ev = EventQueue()
    n, steps = config.ranks, config.steps

    step_times = np.zeros(steps)
    barrier_waits = np.zeros(steps)
    samples = np.full((steps, n), config.batch_per_rank, dtype=np.float64)

    exposed_comm = config.allreduce_time_s * (1.0 - config.overlap_fraction)

    state = {"step": 0, "finished": 0, "slowest": 0.0, "step_start": 0.0,
             "compute_sum": 0.0, "draws": None}

    def emit_step_spans():
        """Virtual-time spans for the step that just completed."""
        start = state["step_start"]
        step_id = tracer.emit(
            "sim_step", start_s=tracer.epoch + start,
            duration_s=ev.now - start, category="sim", lane=0,
            step=state["step"])
        for r, draw in enumerate(state["draws"]):
            tracer.emit("compute", start_s=tracer.epoch + start,
                        duration_s=float(draw), category="sim",
                        lane=r + 1, parent_id=step_id, rank=r)
        if exposed_comm > 0:
            tracer.emit("allreduce_exposed",
                        start_s=tracer.epoch + ev.now - exposed_comm,
                        duration_s=exposed_comm, category="sim", lane=0,
                        parent_id=step_id)

    def start_step():
        state["finished"] = 0
        state["slowest"] = 0.0
        state["compute_sum"] = 0.0
        state["step_start"] = ev.now
        draws = config.compute_time_s * rng.lognormal(
            0.0, config.compute_jitter, size=n)
        state["draws"] = draws
        for r in range(n):
            ev.schedule(float(draws[r]), rank_done(draws[r]))

    def rank_done(compute):
        def _done():
            state["finished"] += 1
            state["slowest"] = max(state["slowest"], ev.now - state["step_start"])
            state["compute_sum"] += compute
            if state["finished"] == n:
                ev.schedule(exposed_comm, step_complete)
        return _done

    def step_complete():
        s = state["step"]
        step_times[s] = ev.now - state["step_start"]
        barrier_waits[s] = state["slowest"] - state["compute_sum"] / n
        if tracer is not None:
            if isinstance(tracer.clock, SimulatedClock):
                tracer.clock.advance_to(tracer.epoch + ev.now)
            emit_step_spans()
        state["step"] += 1
        if state["step"] < steps:
            start_step()

    start_step()
    ev.run()
    if tel.enabled:
        m = tel.metrics
        m.counter("sim.steps").inc(steps)
        for t in step_times:
            m.histogram("sim.step_time_s").observe(float(t))
        for w in barrier_waits:
            m.histogram("sim.barrier_wait_s").observe(float(w))
    return TrainingRunResult(step_times, samples, barrier_waits)
