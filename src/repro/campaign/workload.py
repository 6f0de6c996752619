"""Seeded synthetic campaigns: many users, mixed job kinds, one rng.

Mirrors :mod:`repro.serve.loadgen` one layer up the stack: instead of a
request stream it materializes a *job* stream — Poisson submit times,
users assigned round-robin (so every tenant demands comparable machine
and the fair-share error metric is meaningful), kinds and widths drawn
from one ``numpy.random.default_rng(seed)`` stream.  A (config, seed)
pair always yields byte-identical jobs; the CLI drill, the CI smoke job,
and the determinism tests all lean on that.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .job import JOB_KINDS, Job
from .scheduler import DEFAULT_LANES

__all__ = ["CampaignConfig", "synth_campaign"]

NODE_CHOICES = (2, 4, 8)
#: Progress units drawn per job kind: training sample budgets, serve
#: requests, label data shards.
STEPS_BY_KIND = {"train": (4096, 8192),
                 "serve": (50_000, 100_000),
                 "label": (64, 128)}
DATA_GB_CHOICES = (64.0, 128.0, 256.0)
LANE_WEIGHTS = (0.2, 0.6, 0.2)      # over the scheduler's DEFAULT_LANES


@dataclass(frozen=True)
class CampaignConfig:
    """Shape of one synthetic multi-user campaign."""

    num_users: int = 3
    num_jobs: int = 12
    submit_rate_per_s: float = 1.0 / 30.0   # Poisson job arrivals
    kinds: tuple[str, ...] = JOB_KINDS
    kind_weights: tuple[float, ...] = (0.5, 0.25, 0.25)
    seed: int = 0

    def __post_init__(self):
        if self.num_users < 1 or self.num_jobs < 1:
            raise ValueError("need at least one user and one job")
        if self.submit_rate_per_s <= 0:
            raise ValueError("submit_rate_per_s must be positive")
        if len(self.kind_weights) != len(self.kinds):
            raise ValueError("kind_weights must match kinds")
        for kind in self.kinds:
            if kind not in JOB_KINDS:
                raise ValueError(f"unknown job kind {kind!r}")


def synth_campaign(config: CampaignConfig) -> list[Job]:
    """Materialize the job stream described by ``config``.

    Jobs come back in submit order with ids ``job-0000``, ``job-0001``,
    … and users ``user0..user{N-1}`` assigned round-robin.
    """
    rng = np.random.default_rng(config.seed)
    kind_w = np.asarray(config.kind_weights, dtype=np.float64)
    kind_w = kind_w / kind_w.sum()
    lane_w = np.asarray(LANE_WEIGHTS, dtype=np.float64)
    lane_w = lane_w / lane_w.sum()
    jobs: list[Job] = []
    t = 0.0
    for i in range(config.num_jobs):
        t += float(rng.exponential(1.0 / config.submit_rate_per_s))
        kind = config.kinds[int(rng.choice(len(config.kinds), p=kind_w))]
        nodes = int(NODE_CHOICES[int(rng.integers(len(NODE_CHOICES)))])
        choices = STEPS_BY_KIND[kind]
        steps = int(choices[int(rng.integers(len(choices)))])
        data_gb = float(DATA_GB_CHOICES[
            int(rng.integers(len(DATA_GB_CHOICES)))])
        lane = DEFAULT_LANES[int(rng.choice(len(DEFAULT_LANES), p=lane_w))]
        jobs.append(Job(
            job_id=f"job-{i:04d}",
            user=f"user{i % config.num_users}",
            kind=kind,
            nodes=nodes,
            steps_total=steps,
            submit_s=t,
            data_bytes=data_gb * 1e9 if kind != "serve" else 0.0,
            lane=lane,
            min_nodes=1,
            name=f"{kind}-{i:04d}",
        ))
    return jobs
