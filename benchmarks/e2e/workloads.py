"""The six end-to-end workloads: train x2, infer x2, fleet, campaign.

Each workload is an object with the same five verbs, driven by ``run.py``:

``install()``   wrap the layer boundaries it crosses (traced runs only)
``setup(seed)`` build inputs and program state from the seed; repeatable
``run(s)``      measure for about ``s`` wall seconds into ``self.timed``;
                may be called again, and ``run.py`` may swap ``timed``
``check(ref)``  list of correctness problems (empty = correct)
``layers(..)``  per-layer metrics from the tracer's setup/timed totals

Sizes are fixed here (``SIZES``; ``SMOKE_SIZES`` for the self-tests) and
the seed is the only argument: the program under test only ever sees the
inputs generated from it.  All load is generated from this one process.
"""
from __future__ import annotations

import collections
import dataclasses
import hashlib
import shutil
import time
from pathlib import Path

import numpy as np

import repro.perf.scaling as perf_scaling
import repro.serve.replica as serve_replica
from repro.campaign import (CampaignConfig, CampaignService,
                            CheckpointedRuntime, FairShareScheduler, JobStore,
                            SchedulerConfig, ServiceConfig, SiteConfig,
                            SiteLauncher, synth_campaign)
from repro.climate import (ChannelNormalizer, Grid, SampleFileStore,
                           SnapshotSynthesizer, make_labels)
from repro.comm.engine import EngineConfig, GradientExchangeEngine
from repro.comm.simmpi import World
from repro.core import TrainConfig
from repro.core.checkpoint import CheckpointManager
from repro.core.distributed import DistributedTrainer
from repro.core.flops import count_training_flops
from repro.core.inference import sliding_window_logits
from repro.core.networks import (DeepLabConfig, DeepLabV3Plus, Tiramisu,
                                 TiramisuConfig)
from repro.core.optim.base import Optimizer
from repro.core.trainer import Trainer
from repro.framework.module import Module
from repro.framework.tensor import Tensor
from repro.hpc import SUMMIT
from repro.io.pipeline import PrefetchPipeline
from repro.io.staging import stage_files_to_disk
from repro.resilience import FaultPlan
from repro.serve import (FleetConfig, FleetServer, InferenceRequest,
                         InferenceServer, ReplayConfig, ServeConfig,
                         TileCache, replay_workload, summarize_fleet)
from repro.serve.fleet import Autoscaler, AutoscalerConfig, HashRing
from repro.serve.replica import ReplicaPool
from repro.telemetry.streaming import StreamingAggregator

__all__ = ["SIZES", "SMOKE_SIZES", "WORKLOADS", "Timed", "make_workload"]

#: Weights come from this seed, never from ``--seed``: the workload seed
#: shapes the inputs only, so every seed measures the same program.
MODEL_SEED = 1234

_TIRAMISU = dict(in_channels=16, base_filters=16, growth=8,
                 down_layers=(2, 2), bottleneck_layers=2, kernel=3)
# forward_batch is the 9 windows of one snapshot, so a batch of k requests
# always forwards k stacks of one shape.  At 8 the remainders (stacks of
# 1-4 windows) each get conv plans and workspaces of their own (peak RSS
# 479 MiB against 358), and which remainders occur follows the arrival
# pattern, i.e. the seed.
_SERVE = dict(model="tiramisu", image_hw=(64, 96), window_hw=(32, 48),
              replicas=2, max_batch_size=4, forward_batch=9, max_depth=256,
              warmup=8)

SIZES = {
    "train_conv": dict(
        model="tiramisu", grid=(36, 56), ranks=4, samples=32,
        files_per_rank=16, warmup=5, ckpt_every=30, check_step=20),
    "train_exchange": dict(
        model="deeplab", width=0.18, grid=(8, 8), ranks=4, samples=32,
        files_per_rank=16, warmup=5, ckpt_every=30, check_step=20),
    # The rate keeps the share of requests that find both replicas busy
    # (~2 % at 4 req/s and ~45 ms of service) far from 10 %: they form a
    # second latency mode one service time up, and a p90 next to it (7 %
    # at 8 req/s: p90 54 ms, p95 70 ms) flips with host speed and seed.
    "infer_unique": dict(
        _SERVE, pool=0, rate_rps=4.0, round_requests=24,
        cache_budget_bytes=4 << 20),
    "infer_repeat": dict(
        _SERVE, pool=16, zipf=1.1, rate_rps=400.0, round_requests=400,
        cache_budget_bytes=64 << 20),
    "fleet_replay": dict(
        requests=30_000, duration_s=187.5, burst=(65.0, 30.0, 1.8),
        kill_at=85, snapshot_pool=5000, windows=4, warmup_requests=6000),
    "campaign_mix": dict(
        users=3, nodes=16, submit_rate_per_s=0.2,
        mix=(("train", 2), ("serve", 2), ("label", 2)),
        warmup_mix=(("train", 1), ("serve", 1))),
}

SMOKE_SIZES = {
    "train_conv": dict(SIZES["train_conv"], grid=(16, 24), ranks=2,
                       samples=8, files_per_rank=4, warmup=2, ckpt_every=3,
                       check_step=2),
    "train_exchange": dict(SIZES["train_exchange"], width=0.05, ranks=2,
                           samples=8, files_per_rank=4, warmup=2,
                           ckpt_every=3, check_step=2),
    "infer_unique": dict(SIZES["infer_unique"], image_hw=(24, 32),
                         window_hw=(16, 16), forward_batch=6,
                         round_requests=4, warmup=2,
                         rate_rps=40.0, cache_budget_bytes=64 << 10),
    "infer_repeat": dict(SIZES["infer_repeat"], image_hw=(24, 32),
                         window_hw=(16, 16), forward_batch=6, pool=4,
                         round_requests=40,
                         rate_rps=400.0),
    "fleet_replay": dict(SIZES["fleet_replay"], requests=3000,
                         duration_s=37.5, burst=(13.0, 6.0, 1.2), kill_at=16,
                         warmup_requests=300),
    "campaign_mix": dict(SIZES["campaign_mix"],
                         mix=(("train", 1), ("serve", 1), ("label", 1)),
                         warmup_mix=(("serve", 1),)),
}


@dataclasses.dataclass
class Timed:
    """What one or more ``run`` calls measured."""

    attempted: int = 0          # ops started (steps, requests, rounds' ops)
    failed: int = 0             # ops failed, shed, lost, skipped or raised
    #: One ``(wall_s, work units finished)`` per timed section: a training
    #: step, a served round, a replay round, a campaign round.
    sections: list = dataclasses.field(default_factory=list)
    op_ms: list = dataclasses.field(default_factory=list)    # per-op times
    #: Counts the program reports about the timed sections themselves
    #: (cache hits, windows, virtual makespan), summed as they close.
    counts: dict = dataclasses.field(
        default_factory=lambda: collections.defaultdict(float))

    def add(self, attempted: int, failed: int, work: int,
            wall_s: float) -> None:
        self.attempted += attempted
        self.failed += failed
        self.sections.append((wall_s, work))

    @property
    def wall_s(self) -> float:
        return sum(w for w, _ in self.sections)

    @property
    def work(self) -> int:
        return sum(n for _, n in self.sections)

    def unit_s(self) -> list[float]:
        """Wall seconds per work unit, one value per section."""
        return [w / n for w, n in self.sections if n]

    def throughput(self, parts: int = 6) -> float:
        """Work units per wall second: the median over ``parts`` contiguous
        equal-count slices of the timed phase, so one stalled slice (a
        neighbour's burst on a shared host) does not set the number."""
        n = len(self.sections)
        if n < 2 * parts:
            return self.work / self.wall_s
        rates = []
        for part in _slices(self.sections, parts):
            rates.append(sum(k for _, k in part) / sum(w for w, _ in part))
        return float(np.median(rates))

    def op_ms_percentile(self, q: float, parts: int = 6) -> float:
        """``q``-th percentile of the per-op times: the median over ``parts``
        contiguous equal-count slices of each slice's percentile, for the
        same reason as ``throughput`` -- a two-second stall on a shared
        host is a sixth of the ops, enough to carry a pooled p90 by itself.
        Pooled when a slice would hold fewer than ten ops."""
        if len(self.op_ms) < 10 * parts:
            return float(np.percentile(self.op_ms, q))
        return float(np.median([np.percentile(part, q)
                                for part in _slices(self.op_ms, parts)]))


def _slices(items: list, parts: int) -> list[list]:
    """``items`` cut into ``parts`` contiguous, near-equal runs."""
    cuts = [round(i * len(items) / parts) for i in range(parts + 1)]
    return [items[lo:hi] for lo, hi in zip(cuts, cuts[1:])]


def _digest(*arrays) -> "hashlib._Hash":
    h = hashlib.sha1()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h


class Workload:
    """Shared plumbing; see the module docstring for the verbs."""

    unit = "ops"
    loop = "closed"
    #: Tolerance when comparing ``exact_counts()`` with ``reference.json``.
    rtol = 0.0

    def __init__(self, name: str, sizes: dict, tracer, workdir: Path):
        self.name = name
        self.sizes = sizes
        self.tracer = tracer
        self.workdir = Path(workdir)
        self.timed = Timed()
        self.seed = 0
        self.round = 0
        self.input_digest = ""
        self.problems: list[str] = []
        # Round-based workloads: every round must repeat the first one.
        self.first_counts: dict | None = None
        self.mismatched_rounds = 0

    def _fresh_dir(self, sub: str) -> Path:
        path = self.workdir / sub
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def install(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def _note_round(self, counts: dict) -> None:
        if self.first_counts is None:
            self.first_counts = counts
        elif counts != self.first_counts:
            self.mismatched_rounds += 1

    def exact_counts(self) -> dict:
        """Outputs that repeat bit-for-bit for one seed (loss: to rtol)."""
        return {}

    def invariants(self) -> list[str]:
        raise NotImplementedError

    def check(self, reference: dict) -> list[str]:
        """Invariants on any seed, plus ``reference.json`` on its seed."""
        problems = self.problems + self.invariants()
        if self.seed == reference.get("seed"):
            got = self.exact_counts()
            for key, want in reference.get("counts", {}).items():
                if key not in got or not np.isclose(
                        got[key], want, rtol=self.rtol, atol=0.0):
                    problems.append(f"{key} is {got.get(key)!r}, "
                                    f"reference {want!r}")
        return problems


# ---------------------------------------------------------------------------
# train_conv / train_exchange
# ---------------------------------------------------------------------------


def _model_factory(sizes: dict):
    if sizes["model"] == "tiramisu":
        return lambda: Tiramisu(TiramisuConfig(**_TIRAMISU),
                                rng=np.random.default_rng(MODEL_SEED))
    return lambda: DeepLabV3Plus(
        DeepLabConfig(in_channels=16, width=sizes["width"],
                      aspp_dilations=(1, 2, 3)),
        rng=np.random.default_rng(MODEL_SEED))


class TrainWorkload(Workload):
    """Staged files -> prefetch pipeline -> N-rank synchronous training.

    Closed loop, one client: the next step starts when the previous one
    ends.  One op is one global step, timed from before the wait for its
    input batch to after its (every ``ckpt_every``-th step) checkpoint.
    """

    unit = "samples"
    rtol = 1e-3
    _stream = None

    def install(self) -> None:
        t = self.tracer
        t.wrap(SampleFileStore, "read_sample", "climate.store_read")
        t.wrap(Module, "__call__", "framework.forward", outermost=True)
        t.wrap(Tensor, "backward", "framework.backward")
        t.wrap(Trainer, "compute_loss", "core.loss")
        t.wrap(Optimizer, "step", "core.optim")
        t.wrap(GradientExchangeEngine, "exchange", "comm.exchange")

    def setup(self, seed: int) -> None:
        self.close()
        s, t = self.sizes, self.tracer
        self.seed = seed
        work = self._fresh_dir("train")
        grid = Grid(nlat=s["grid"][0], nlon=s["grid"][1])
        synth = SnapshotSynthesizer(grid)
        store = SampleFileStore(work / "pfs")
        images = []
        digest = hashlib.sha1()
        for i in range(s["samples"]):
            with t.span("climate.synth"):
                snap = synth.generate(seed * 1_000_003 + i)
                image = snap.to_array()
                labels = make_labels(snap)
            with t.span("climate.store_write"):
                path = store.write_sample(i, image, labels)
            t.count("climate.store_write_bytes", path.stat().st_size)
            images.append(image)
            digest.update(image.tobytes())
            digest.update(labels.tobytes())
        self.input_digest = digest.hexdigest()
        # Raw CAM5-like fields span 1e-8..1e5; unnormalised they give a
        # loss near 1e4 and nothing to learn from.
        self.normalizer = ChannelNormalizer().fit(np.stack(images))
        ranks = s["ranks"]
        with t.span("io.stage"):
            staged, stats = stage_files_to_disk(
                World(ranks), store.root, work / "local",
                s["files_per_rank"], seed=seed)
        t.count("io.stage_fs_bytes", stats["fs_bytes_read"])
        t.count("io.stage_fabric_bytes", stats["fabric_bytes"])
        if not stats["consistent"]:
            self.problems.append("staged files differ from their sources")
        self.rank_stores = [SampleFileStore(work / "local" / f"rank-{r}")
                            for r in range(ranks)]
        self.rank_files = [[int(p.stem.split("-")[1]) for p in paths]
                           for paths in staged]
        self.trainer = DistributedTrainer(
            _model_factory(s), ranks,
            TrainConfig(lr=0.01, optimizer="larc", precision="fp32"),
            engine=EngineConfig())
        self.ckpt = CheckpointManager(work / "ckpt", keep_last=2)
        self.losses: list[float] = []
        self.last_exchange = None
        self._stream = self._rank_batches()
        self._steps(max_steps=s["warmup"], seconds=None, timed=Timed())

    def _read(self, slot: int):
        ranks = self.sizes["ranks"]
        rank, k = slot % ranks, slot // ranks
        image, labels = self.rank_stores[rank].read_sample(
            self.rank_files[rank][k])
        image = self.normalizer.transform(image).astype(np.float32)
        return image[None], labels[None]

    def _rank_batches(self):
        """Endless stream of sample iterators, one pipeline per epoch.

        Yields the pipeline's iterator once per step so the caller pulls
        (and times) the step's ``ranks`` samples itself.  Closing the
        generator drains the current pipeline, which lets its reader
        threads run out of work and join.
        """
        s = self.sizes
        per_epoch = s["files_per_rank"] * s["ranks"]
        while True:
            it = iter(PrefetchPipeline(self._read, range(per_epoch),
                                       num_workers=2, prefetch_depth=8))
            try:
                for _ in range(s["files_per_rank"]):
                    yield it
            finally:
                for _ in it:
                    pass

    def _steps(self, max_steps, seconds, timed: Timed) -> None:
        s, t = self.sizes, self.tracer
        ranks = s["ranks"]
        begin = time.perf_counter()
        done = 0
        while ((max_steps is None or done < max_steps) and
               (seconds is None or time.perf_counter() - begin < seconds)):
            step = len(self.losses)
            t.op_id = f"step-{step}"
            it = next(self._stream)
            t0 = time.perf_counter()
            with t.span("io.input_wait"):
                batches = [next(it) for _ in range(ranks)]
            t.count("io.samples_delivered", ranks)
            result = self.trainer.train_step(batches)
            if (step + 1) % s["ckpt_every"] == 0:
                with t.span("core.checkpoint"):
                    path = self.ckpt.save(
                        self.trainer.trainers[0], step=step + 1,
                        extra_arrays=self.trainer.comm_state())
                t.count("core.checkpoint_bytes", path.stat().st_size)
            dt = time.perf_counter() - t0
            self.losses.append(result.mean_loss)
            self.last_exchange = result.exchange
            ok = not result.skipped and np.isfinite(result.mean_loss)
            timed.add(1, 0 if ok else 1, ranks if ok else 0, dt)
            if ok:
                timed.op_ms.append(dt * 1e3)
            done += 1

    def run(self, seconds: float) -> None:
        self._steps(max_steps=None, seconds=seconds, timed=self.timed)

    def close(self) -> None:
        if self._stream is not None:
            self._stream.close()
            self._stream = None

    def invariants(self) -> list[str]:
        problems = []
        losses = np.asarray(self.losses)
        if not np.all(np.isfinite(losses)):
            problems.append("non-finite loss")
        if len(losses) >= 20 and losses[-10:].mean() >= losses[:10].mean():
            problems.append(
                f"loss did not fall: first ten {losses[:10].mean():.4f}, "
                f"last ten {losses[-10:].mean():.4f}")
        divergence = self.trainer.max_replica_divergence()
        if divergence != 0:
            problems.append(f"replicas diverged by {divergence}")
        if len(losses) <= self._check_at:
            problems.append(
                f"run ended before check step {self._check_at}")
        return problems

    @property
    def _check_at(self) -> int:
        return self.sizes["warmup"] + self.sizes["check_step"]

    def exact_counts(self) -> dict:
        if len(self.losses) <= self._check_at:
            return {}
        return {"core.loss_at_check": float(self.losses[self._check_at])}

    def layers(self, setup, timed) -> dict:
        s = self.sizes
        flops = count_training_flops(
            self.trainer.model, (16,) + tuple(s["grid"])).flops_per_sample()
        compute_s = (timed.self_s["framework.forward"]
                     + timed.self_s["framework.backward"])
        report = self.last_exchange
        return {
            "climate.synth_busy_s": setup.self_s["climate.synth"],
            "climate.store_write_busy_s": setup.self_s["climate.store_write"],
            "climate.store_write_bytes":
                setup.calls["climate.store_write_bytes"],
            "climate.store_read_busy_s": timed.self_s["climate.store_read"],
            "climate.store_read_calls": timed.calls["climate.store_read"],
            "io.stage_busy_s": setup.self_s["io.stage"],
            "io.stage_fs_bytes": setup.calls["io.stage_fs_bytes"],
            "io.stage_fabric_bytes": setup.calls["io.stage_fabric_bytes"],
            "io.input_wait_s": timed.self_s["io.input_wait"],
            "io.samples_delivered": timed.calls["io.samples_delivered"],
            "framework.forward_busy_s": timed.self_s["framework.forward"],
            "framework.backward_busy_s": timed.self_s["framework.backward"],
            "framework.train_gflops":
                flops * self.timed.work / compute_s / 1e9
                if compute_s else 0.0,
            "core.loss_busy_s": timed.self_s["core.loss"],
            "core.optim_busy_s": timed.self_s["core.optim"],
            "core.optim_calls": timed.calls["core.optim"],
            "core.checkpoint_busy_s": timed.self_s["core.checkpoint"],
            "core.checkpoint_bytes": timed.calls["core.checkpoint_bytes"],
            "comm.exchange_busy_s": timed.self_s["comm.exchange"],
            "comm.exchange_calls": timed.calls["comm.exchange"],
            "comm.wire_bytes_per_step": report.wire_bytes,
            "comm.messages_per_step": report.data_messages,
            "comm.buckets_per_step": len(report.decisions),
            "comm.overlap_fraction": report.overlap_fraction,
        }


# ---------------------------------------------------------------------------
# infer_unique / infer_repeat
# ---------------------------------------------------------------------------


class InferWorkload(Workload):
    """Online tiled inference through ``InferenceServer``.

    Open loop: each round offers ``round_requests`` seeded Poisson
    arrivals at ``rate_rps`` on the server's virtual clock, whose service
    times are measured wall time.  One op is one request; its time is
    ``completed_s - arrival_s``, counted from the scheduled arrival, so a
    stall counts against every request queued behind it.  The generator is
    never late: arrivals are timestamps, not sleeps.
    """

    unit = "requests"
    loop = "open"

    def install(self) -> None:
        t = self.tracer
        t.wrap(Module, "freeze_for_inference", "framework.freeze")
        t.wrap(Module, "__call__", "framework.forward", outermost=True)
        t.wrap(ReplicaPool, "execute", "serve.replica",
               op_from=lambda a, k: f"{t.op_id}/req-{a[1][0].request_id}")
        t.wrap(serve_replica, "forward_windows", "core.infer_forward")
        t.wrap(serve_replica, "blend_windows", "core.infer_blend",
               mode="time")
        for verb in ("key", "get", "put"):
            t.wrap(TileCache, verb, f"serve.cache_{verb}", mode="time")

    def setup(self, seed: int) -> None:
        s = self.sizes
        self.seed = seed
        self.reference_model = _model_factory(s)()
        self.server = InferenceServer(_model_factory(s), ServeConfig(
            window_hw=s["window_hw"], num_replicas=s["replicas"],
            max_batch_size=s["max_batch_size"],
            # Not the default 2 ms age trigger: `serve` strands the last
            # queued request (KeyError) whenever (t + 0.002) - t < 0.002
            # in floating point, which seed 0 hits.  With no age wait a
            # batch still grows while both replicas are busy.
            max_wait_s=0.0,
            forward_batch=s["forward_batch"], max_depth=s["max_depth"],
            cache_budget_bytes=s["cache_budget_bytes"]))
        rng = np.random.default_rng([seed, 0])
        shape = (16,) + tuple(s["image_hw"])
        self.pool = [rng.standard_normal(shape).astype(np.float32)
                     for _ in range(s["pool"])]
        digest = _digest(*self.pool)
        if self.pool:
            ranks = np.arange(1, len(self.pool) + 1, dtype=np.float64)
            self.popularity = ranks ** -s["zipf"] / (ranks ** -s["zipf"]).sum()
            # Set-up serves every pool snapshot once, so the timed phase
            # finds all of its windows in the cache.
            warm = self._requests(0, picks=np.arange(len(self.pool)))
        else:
            warm = self._requests(0, count=s["warmup"])
        self.round = 0
        self.samples: list = []
        self.lost_admitted = 0
        self._serve_round(warm, Timed())
        start = self.server.clock.now()    # measured, so not an input
        first = self._requests(1)
        for req in first:
            digest.update(req.image.tobytes())
            digest.update(np.float32(req.arrival_s - start).tobytes())
        self.input_digest = digest.hexdigest()
        self._next = first

    def _requests(self, k: int, count: int | None = None, picks=None):
        """Round ``k``'s arrivals, continuing from the server's clock."""
        s = self.sizes
        rng = np.random.default_rng([self.seed, k + 1])
        if picks is None:
            count = count or s["round_requests"]
            if self.pool:
                picks = rng.choice(len(self.pool), size=count,
                                   p=self.popularity)
        else:
            count = len(picks)
        arrivals = self.server.clock.now() + np.cumsum(
            rng.exponential(1.0 / s["rate_rps"], size=count))
        lanes = rng.integers(0, 2, size=count)
        shape = (16,) + tuple(s["image_hw"])
        requests = []
        for i in range(count):
            image = (self.pool[int(picks[i])] if picks is not None
                     else rng.standard_normal(shape).astype(np.float32))
            requests.append(InferenceRequest(
                request_id=i, image=image,
                lane=self.server.config.lanes[int(lanes[i])],
                arrival_s=float(arrivals[i])))
        return requests

    def _serve_round(self, requests, timed: Timed) -> None:
        t = self.tracer
        t.op_id = f"round-{self.round}"
        before = self._server_counts()
        t0 = time.perf_counter()
        with t.span("serve.serve"):
            responses = self.server.serve(requests)
        dt = time.perf_counter() - t0
        for key, value in self._server_counts().items():
            timed.counts[key] += value - before[key]
        served = [r for r in responses if r.status == "served"]
        admitted = sum(1 for r in responses if r.status != "shed")
        self.lost_admitted += admitted - len(served)
        timed.add(len(requests), len(requests) - len(served), len(served), dt)
        timed.op_ms.extend(r.latency_s * 1e3 for r in served)
        timed.counts["batch_size_sum"] += sum(r.batch_size for r in served)
        if served:
            timed.counts["makespan_s"] += (
                max(r.completed_s for r in served)
                - min(r.arrival_s for r in requests))
        if len(self.samples) < 3:
            by_id = {r.request_id: r for r in served}
            for req in requests[:: max(len(requests) // 3, 1)][:3]:
                if req.request_id in by_id and len(self.samples) < 3:
                    self.samples.append(
                        (req.image, by_id[req.request_id].class_map))
        self.round += 1

    def _server_counts(self) -> dict:
        stats = self.server.cache.stats
        return {"hits": stats.hits, "misses": stats.misses,
                "evictions": stats.evictions,
                "windows": sum(r.windows for r in self.server.pool.replicas),
                "retries": self.server.total_retries}

    def run(self, seconds: float) -> None:
        begin = time.perf_counter()
        while time.perf_counter() - begin < seconds:
            requests = self._next or self._requests(self.round)
            self._next = None
            self._serve_round(requests, self.timed)

    def invariants(self) -> list[str]:
        problems = []
        if self.lost_admitted:
            problems.append(f"{self.lost_admitted} admitted requests lost")
        if len(self.samples) < 3:
            problems.append("fewer than three served requests to sample")
        model = self.reference_model
        for image, class_map in self.samples:
            logits = sliding_window_logits(
                model, image, self.sizes["window_hw"], batch_size=1)
            top = np.sort(logits, axis=0)
            decided = top[-1] - top[-2] > 2e-4     # 1e-4 on each logit
            wrong = int((np.argmax(logits, axis=0) != class_map)[decided]
                        .sum())
            if wrong:
                problems.append(
                    f"{wrong} pixels differ from offline unfrozen "
                    "sliding_window_logits beyond 1e-4")
        if self.pool and self.timed.counts["misses"]:
            problems.append("timed phase missed the cache "
                            f"{self.timed.counts['misses']:.0f} times")
        return problems

    def layers(self, setup, timed) -> dict:
        s = self.sizes
        counts = self.timed.counts
        hits, misses = counts["hits"], counts["misses"]
        flops = self.reference_model.analyze(
            (16,) + tuple(s["window_hw"]),
            include_backward=False).flops_per_sample()
        forward_s = timed.self_s["framework.forward"]
        replica_s = timed.incl_s["serve.replica"]
        return {
            "framework.freeze_busy_s": setup.self_s["framework.freeze"],
            "framework.forward_busy_s": forward_s,
            "framework.infer_gflops":
                flops * misses / forward_s / 1e9 if forward_s else 0.0,
            "core.infer_forward_busy_s": timed.self_s["core.infer_forward"],
            "core.infer_blend_busy_s": timed.self_s["core.infer_blend"],
            "core.infer_windows": counts["windows"],
            "serve.serve_busy_s": timed.incl_s["serve.serve"],
            "serve.replica_busy_s": replica_s,
            "serve.loop_self_s": timed.self_s["serve.serve"],
            "serve.cache_key_busy_s": timed.self_s["serve.cache_key"],
            "serve.cache_get_busy_s": timed.self_s["serve.cache_get"],
            "serve.cache_put_busy_s": timed.self_s["serve.cache_put"],
            "serve.cache_hits": hits,
            "serve.cache_misses": misses,
            "serve.cache_evictions": counts["evictions"],
            "serve.cache_hit_rate":
                hits / (hits + misses) if hits + misses else 0.0,
            "serve.mean_batch_size":
                counts["batch_size_sum"] / max(self.timed.work, 1),
            "serve.replica_utilization":
                replica_s / (s["replicas"] * counts["makespan_s"])
                if counts["makespan_s"] else 0.0,
            "serve.shed": self.timed.failed,
            "serve.retries": counts["retries"],
        }


# ---------------------------------------------------------------------------
# fleet_replay
# ---------------------------------------------------------------------------


class FleetWorkload(Workload):
    """The fleet control-plane simulator replaying one seeded trace.

    Open-loop trace on the virtual clock, replayed as fast as the host
    allows.  One op is one replay round (a fresh ``FleetServer`` over the
    same ``requests``-long trace, then ``summarize_fleet``); every round
    must reproduce the first one's counts exactly.
    """

    unit = "requests"
    loop = "open"
    CELLS = ("east", "west")

    def install(self) -> None:
        t = self.tracer
        t.wrap(StreamingAggregator, "advance", "fleet.stream_advance",
               mode="time")
        t.wrap(Autoscaler, "decide", "fleet.autoscaler_decide", mode="time")
        t.wrap(HashRing, "assign", "fleet.hashring_assign", mode="count")
        t.wrap(TileCache, "get", "fleet.cache_get", mode="count")
        t.wrap(TileCache, "put", "fleet.cache_put", mode="count")

    def _replay(self, requests: int, scale: float):
        s = self.sizes
        start, length, mult = s["burst"]
        return replay_workload(ReplayConfig(
            num_requests=requests, duration_s=s["duration_s"] * scale,
            cells=self.CELLS,
            bursts=((start * scale, length * scale, mult),),
            snapshot_pool=s["snapshot_pool"], windows=s["windows"],
            seed=self.seed))

    def setup(self, seed: int) -> None:
        s = self.sizes
        self.seed = seed
        with self.tracer.span("fleet.replaygen"):
            self.replay = self._replay(s["requests"], 1.0)
        r = self.replay
        self.input_digest = _digest(
            r.arrival_s, r.key, r.lane, r.cell, r.windows).hexdigest()
        scale = s["warmup_requests"] / s["requests"]
        self._round(self._replay(s["warmup_requests"], scale),
                    max(int(s["kill_at"] * scale), 1), Timed())
        self.first_counts, self.mismatched_rounds = None, 0
        self.round = 0

    def _round(self, replay, kill_at: int, timed: Timed) -> None:
        t = self.tracer
        t.op_id = f"round-{self.round}"
        t0 = time.perf_counter()
        config = FleetConfig(
            cells=self.CELLS, initial_replicas=2, cache_budget_bytes=2 << 20,
            sharded=True,
            autoscaler=AutoscalerConfig(min_replicas=1, max_replicas=8))
        server = FleetServer(config, plan=FaultPlan.parse(
            f"rank_fail@{kill_at}:rank=0", seed=self.seed))
        with t.span("fleet.run"):
            result = server.run(replay)
        with t.span("fleet.summarize"):
            report = summarize_fleet(result, server, replay)
        dt = time.perf_counter() - t0
        counts = {
            "fleet.served": report.served, "fleet.shed": report.shed,
            "fleet.spilled": report.spilled, "fleet.hit_rate": report.hit_rate,
            "fleet.scale_events": len(report.scale_events),
            "fleet.lost_admitted": report.lost_admitted,
            "fleet.failed": report.failed,
        }
        self._note_round(counts)
        n = len(replay)
        timed.add(n, n - report.served, report.served, dt)
        timed.op_ms.append(dt * 1e3)
        self.round += 1

    def run(self, seconds: float) -> None:
        begin = time.perf_counter()
        while time.perf_counter() - begin < seconds:
            self._round(self.replay, self.sizes["kill_at"], self.timed)

    def invariants(self) -> list[str]:
        problems = []
        c = self.first_counts
        if c["fleet.lost_admitted"] or c["fleet.failed"]:
            problems.append(f"lost {c['fleet.lost_admitted']} / failed "
                            f"{c['fleet.failed']} admitted requests")
        if self.mismatched_rounds:
            problems.append(f"{self.mismatched_rounds} rounds did not "
                            "reproduce the first round's counts")
        return problems

    def exact_counts(self) -> dict:
        return {k: v for k, v in self.first_counts.items()
                if k != "fleet.failed"}

    def layers(self, setup, timed) -> dict:
        rounds = max(len(self.timed.op_ms), 1)
        out = {
            "fleet.replaygen_busy_s": setup.self_s["fleet.replaygen"],
            "fleet.run_busy_s": timed.self_s["fleet.run"],
            "fleet.summarize_busy_s": timed.self_s["fleet.summarize"],
            "fleet.stream_advance_busy_s":
                timed.self_s["fleet.stream_advance"],
            "fleet.autoscaler_decide_busy_s":
                timed.self_s["fleet.autoscaler_decide"],
            # Call counts are per round, so they do not grow with run time.
            "fleet.hashring_assign_calls":
                timed.calls["fleet.hashring_assign"] / rounds,
            "fleet.cache_get_calls": timed.calls["fleet.cache_get"] / rounds,
            "fleet.cache_put_calls": timed.calls["fleet.cache_put"] / rounds,
        }
        out.update(self.exact_counts())
        return out


# ---------------------------------------------------------------------------
# campaign_mix
# ---------------------------------------------------------------------------


class CampaignWorkload(Workload):
    """The campaign orchestrator draining one seeded multi-user campaign.

    Closed loop: one op is one round -- the job mix submitted to a fresh
    ``CampaignService`` with a disk ``JobStore`` and ``CheckpointedRuntime``
    and driven until the event queue drains.  Every round must reproduce
    the first one's counts exactly.

    The number of jobs of each kind is fixed and the injected kill always
    lands on the first train job: a train launch costs ~100x a serve or
    label launch, so a mix drawn per seed would measure the draw.
    """

    unit = "jobs"

    def install(self) -> None:
        t = self.tracer
        job_of = lambda a, k: f"{t.op_id}/{a[1].job_id}"  # noqa: E731
        for verb in ("run_s", "stage_in_s"):
            t.wrap(SiteLauncher, verb, "campaign.launcher", op_from=job_of)
        t.wrap(SiteLauncher, "pack", "campaign.launcher")
        t.wrap(FairShareScheduler, "order", "campaign.scheduler")
        for verb in ("submit", "transition"):
            t.wrap(JobStore, verb, "campaign.store", op_from=job_of)
        t.wrap(CheckpointedRuntime, "save", "campaign.runtime_ckpt",
               op_from=job_of)
        t.wrap(perf_scaling, "step_time_model", "perf.step_time_model")

    def _jobs(self, mix) -> list:
        """Fresh jobs in submit order: ``synth_campaign`` once per kind."""
        s = self.sizes
        jobs = []
        for k, (kind, count) in enumerate(mix):
            jobs += synth_campaign(CampaignConfig(
                num_users=s["users"], num_jobs=count, kinds=(kind,),
                kind_weights=(1.0,),
                submit_rate_per_s=s["submit_rate_per_s"] * count
                / sum(c for _, c in mix),
                seed=self.seed * len(mix) + k))
        jobs.sort(key=lambda j: j.submit_s)
        return [dataclasses.replace(j, job_id=f"job-{i:04d}",
                                    user=f"user{i % s['users']}",
                                    name=f"{j.kind}-{i:04d}")
                for i, j in enumerate(jobs)]

    def setup(self, seed: int) -> None:
        self.seed = seed
        h = hashlib.sha1()
        for j in self._jobs(self.sizes["mix"]):
            h.update(repr((j.job_id, j.user, j.kind, j.nodes, j.steps_total,
                           j.submit_s, j.data_bytes, j.lane)).encode())
        self.input_digest = h.hexdigest()
        self._round(self.sizes["warmup_mix"], Timed())
        self.first_counts, self.mismatched_rounds = None, 0
        self.round = 0

    def _round(self, mix, timed: Timed) -> None:
        t = self.tracer
        t.op_id = f"round-{self.round}"
        jobs = self._jobs(mix)
        count = len(jobs)
        victim = next((i for i, j in enumerate(jobs) if j.kind == "train"), 0)
        work = self._fresh_dir("campaign")
        t0 = time.perf_counter()
        store = JobStore(work / "campaign.jsonl")
        service = CampaignService(
            SiteLauncher(SiteConfig(system=SUMMIT, nodes=self.sizes["nodes"])),
            store, FairShareScheduler(SchedulerConfig()),
            CheckpointedRuntime(work / "jobs", seed=self.seed),
            ServiceConfig(),
            # Armed at tick 0, before anything launches, so the victim is
            # killed whenever it starts.  A kill armed at a later tick
            # misses on seeds whose victim has finished by then (tick 1,
            # seed 202), and a round without the restart is a third cheaper.
            plan=FaultPlan.parse(f"rank_fail@0:rank={victim}",
                                 seed=self.seed))
        for job in jobs:
            service.submit(job)
        with t.span("campaign.run"):
            report = service.run()
        store.close()
        dt = time.perf_counter() - t0
        t.count("campaign.store_bytes",
                (work / "campaign.jsonl").stat().st_size)
        done = report.by_terminal_state.get("DONE", 0)
        counts = {
            "hpc.events_processed": service.events.processed,
            "campaign.transitions": sum(len(j.transitions) for j in store),
            "campaign.restarts": report.restarts,
            "campaign.fair_share_error": report.fair_share_error,
            "campaign.lost_jobs": len(report.lost_jobs),
            "campaign.done": done,
        }
        self._note_round(counts)
        timed.add(count, count - done, done, dt)
        timed.op_ms.append(dt * 1e3)
        self.round += 1

    def run(self, seconds: float) -> None:
        begin = time.perf_counter()
        while time.perf_counter() - begin < seconds:
            self._round(self.sizes["mix"], self.timed)

    def invariants(self) -> list[str]:
        problems = []
        c = self.first_counts
        jobs = sum(n for _, n in self.sizes["mix"])
        if c["campaign.lost_jobs"] or c["campaign.done"] != jobs:
            problems.append(f"{c['campaign.lost_jobs']} jobs lost, "
                            f"{c['campaign.done']}/{jobs} DONE")
        if c["campaign.restarts"] != 1:
            problems.append(f"{c['campaign.restarts']} restarts: the "
                            "injected kill must land exactly once")
        if self.mismatched_rounds:
            problems.append(f"{self.mismatched_rounds} rounds did not "
                            "reproduce the first round's counts")
        return problems

    def exact_counts(self) -> dict:
        return {k: v for k, v in self.first_counts.items()
                if k not in ("campaign.lost_jobs", "campaign.done")}

    def layers(self, setup, timed) -> dict:
        rounds = max(len(self.timed.op_ms), 1)
        out = {
            "campaign.run_busy_s": timed.self_s["campaign.run"],
            "campaign.launcher_busy_s": timed.self_s["campaign.launcher"],
            "campaign.scheduler_busy_s": timed.self_s["campaign.scheduler"],
            "campaign.store_busy_s": timed.self_s["campaign.store"],
            "campaign.store_bytes":
                timed.calls["campaign.store_bytes"] / rounds,
            "campaign.runtime_ckpt_busy_s":
                timed.self_s["campaign.runtime_ckpt"],
            "perf.step_time_model_busy_s":
                timed.self_s["perf.step_time_model"],
            "perf.step_time_model_calls":
                timed.calls["perf.step_time_model"] / rounds,
        }
        out.update(self.exact_counts())
        return out


WORKLOADS = {
    "train_conv": TrainWorkload,
    "train_exchange": TrainWorkload,
    "infer_unique": InferWorkload,
    "infer_repeat": InferWorkload,
    "fleet_replay": FleetWorkload,
    "campaign_mix": CampaignWorkload,
}


def make_workload(name: str, tracer, workdir, smoke: bool = False) -> Workload:
    sizes = (SMOKE_SIZES if smoke else SIZES)[name]
    return WORKLOADS[name](name, sizes, tracer, workdir)
