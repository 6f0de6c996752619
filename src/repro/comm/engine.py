"""Adaptive gradient-exchange engine: select, fuse, compress, overlap.

The paper hand-picks one all-reduce (the hybrid NCCL+MPI hierarchy) and one
fusion threshold for the whole model.  Follow-up work ("Exascale Deep
Learning for Scientific Inverse Problems") shows the next step is adaptive
communication: pick the collective *per payload size*, pack small tensors
into buckets, and compress what remains.  :class:`GradientExchangeEngine`
implements that loop over the existing substrate:

* **selection** — per size-class, rank the registered
  :class:`~repro.comm.api.CommStrategy` candidates by their alpha-beta cost
  model, then refine with measured-traffic feedback (messages and bytes
  observed on the simulated wire, costed through the interconnect link —
  deterministic, no wall clocks).  Once every candidate has been tried the
  cheapest *measured* one is cached, so the settled choice is never slower
  than the worst fixed algorithm at that size;
* **bucketing** — gradients are packed in backward order into flat buckets
  (:func:`fuse_order`, Horovod's tensor fusion), cutting the number of
  collectives by the mean bucket occupancy.  The buckets are persistent
  ``(ranks, elems)`` buffers the engine owns, one row per rank: the
  strategy reduces in place in the rows and the averaged gradients come
  back as views, so a steady-state dense exchange allocates nothing.  A
  trainer that writes its gradients straight into their rows
  (:meth:`GradientExchangeEngine.bucket_slots`) skips the pack copy too;
* **compression** — optional top-k or int8 compression with per-tensor
  error-feedback residuals (see :mod:`repro.comm.compression`); residual
  state is exportable so it survives checkpoint/restore and elastic shrink;
* **overlap** — bucket exchanges are replayed as backward-order readiness
  events on :class:`repro.hpc.events.EventQueue` against a serialized comm
  channel, generalizing the paper's gradient-lag trick; the report's
  ``overlap_fraction`` says how much comm hid under backward compute.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..framework.ops.workspace import mapped
from ..hpc.events import EventQueue
from ..hpc.specs import SUMMIT
from ..telemetry import get_active
from .api import get_strategy
from .compression import (
    SparseGradient,
    make_compressor,
    sparse_allreduce,
)
from .reducer import _reduce_dtype
from .simmpi import World

__all__ = ["EngineConfig", "EngineReport", "FusionPlan",
           "GradientExchangeEngine", "fuse_order", "unpack_bucket"]

# The exchange is costed on Summit's fabric, with the paper's hybrid
# all-reduce layout of 4 MPI ranks per node.
_NVLINK = SUMMIT.node.nvlink
_INTERCONNECT = SUMMIT.interconnect
_MPI_RANKS_PER_NODE = 4
# Backward-pass speed for the overlap model: seconds of compute per
# gradient byte produced (~0.5 GB/s of gradients on a V100-class GPU).
_COMPUTE_S_PER_BYTE = 2e-9


@dataclass(frozen=True)
class EngineConfig:
    """Knobs for the adaptive gradient exchange."""

    strategies: tuple[str, ...] = ("ring", "tree", "hierarchical", "naive")
    bucket_bytes: int = 4 * 1024 * 1024
    compression: str | None = None        # None, "topk", or "int8"
    compression_ratio: float = 0.01       # top-k keep fraction
    autotune: bool = True
    gpus_per_node: int = 6

    def __post_init__(self):
        if not self.strategies:
            raise ValueError("need at least one strategy")
        for name in self.strategies:
            get_strategy(name)  # raises on unknown names
        if self.compression not in (None, "topk", "int8"):
            raise ValueError(f"unknown compression {self.compression!r}")
        if self.bucket_bytes <= 0:
            raise ValueError("bucket_bytes must be positive")


@dataclass
class FusionPlan:
    """Groups of tensor names reduced together in one collective."""

    groups: list[list[str]]
    group_bytes: list[int]

    @property
    def num_collectives(self) -> int:
        return len(self.groups)


def fuse_order(order: list[str], sizes: dict[str, int], threshold_bytes: int) -> FusionPlan:
    """Pack tensors (in ``order``) into fusion buffers."""
    groups: list[list[str]] = []
    group_bytes: list[int] = []
    cur: list[str] = []
    cur_bytes = 0
    for name in order:
        nbytes = sizes[name]
        if cur and cur_bytes + nbytes > threshold_bytes:
            groups.append(cur)
            group_bytes.append(cur_bytes)
            cur, cur_bytes = [], 0
        cur.append(name)
        cur_bytes += nbytes
    if cur:
        groups.append(cur)
        group_bytes.append(cur_bytes)
    return FusionPlan(groups, group_bytes)


def unpack_bucket(flat: np.ndarray, group: list[str],
                  like: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Split a reduced fusion buffer back into ``group``'s named tensors.

    Each tensor takes the shape and dtype of its entry in ``like``; it is a
    view of ``flat`` when the dtypes already agree, a converted copy
    otherwise.
    """
    out = {}
    offset = 0
    for k in group:
        ref = like[k]
        out[k] = (flat[offset:offset + ref.size].reshape(ref.shape)
                  .astype(ref.dtype, copy=False))
        offset += ref.size
    return out


@dataclass
class EngineReport:
    """What one gradient exchange did and cost."""

    fusion: FusionPlan
    data_messages: int                    # messages on the simulated wire
    data_bytes: int                       # bytes on the simulated wire
    dense_bytes: int = 0                  # per-rank uncompressed payload
    wire_bytes: int = 0                   # per-rank payload actually sent
    compression_ratio: float = 1.0        # dense_bytes / wire_bytes
    overlap_fraction: float = 0.0         # comm hidden under backward compute
    decisions: dict[int, str] = field(default_factory=dict)  # bucket -> algo


class GradientExchangeEngine:
    """Per-tensor adaptive gradient exchange over the functional wire.

    One engine instance persists across steps: the autotune cache and the
    per-rank error-feedback residuals are its long-lived state.  The
    residuals are the part that must survive checkpoint/restore and elastic
    shrink — see :meth:`comm_state` / :meth:`load_comm_state` /
    :meth:`shrink`.
    """

    def __init__(self, world_size: int, config: EngineConfig | None = None):
        self.config = config or EngineConfig()
        self.world_size = int(world_size)
        # (world_size, size_class) -> settled strategy name.
        self._settled: dict[tuple[int, int], str] = {}
        # (world_size, size_class) -> {strategy: measured cost per byte}.
        self._measured: dict[tuple[int, int], dict[str, float]] = {}
        self._compressors = None
        if self.config.compression is not None:
            self._compressors = [
                make_compressor(self.config.compression,
                                self.config.compression_ratio)
                for _ in range(self.world_size)
            ]
        self.last_report: EngineReport | None = None
        # Dense bucket buffers: layout key and one (ranks, elems) buffer per
        # bucket.
        self._pack_key: tuple | None = None
        self._pack: list[np.ndarray] = []
        #: Gradient tensors copied into a bucket row (an in-slot one is not).
        self.pack_copies = 0

    # -- selection / autotune ------------------------------------------------

    @staticmethod
    def _size_class(nbytes: int) -> int:
        """Power-of-two size bucket: all payloads in [2^k, 2^(k+1)) share one."""
        return max(int(nbytes), 1).bit_length()

    def _strategy_params(self, name: str) -> dict:
        if name == "hierarchical":
            return dict(gpus_per_node=self.config.gpus_per_node,
                        mpi_ranks_per_node=_MPI_RANKS_PER_NODE)
        return {}

    def _candidates(self, n: int, nbytes: int) -> list[str]:
        """Viable strategies for an ``n``-rank exchange, cheapest model first."""
        cfg = self.config
        out = []
        for name in cfg.strategies:
            if name == "hierarchical" and (n < cfg.gpus_per_node
                                           or n % cfg.gpus_per_node):
                continue
            out.append(name)
        if not out:
            out = [s for s in cfg.strategies if s != "hierarchical"] or ["ring"]

        def modeled(name: str) -> float:
            return get_strategy(name).modeled_time(
                n, float(nbytes), nvlink=_NVLINK,
                interconnect=_INTERCONNECT, **self._strategy_params(name))

        return sorted(out, key=modeled)

    def select(self, n: int, nbytes: int) -> str:
        """The strategy the engine would use right now for this payload."""
        key = (n, self._size_class(nbytes))
        if key in self._settled:
            return self._settled[key]
        candidates = self._candidates(n, nbytes)
        if not self.config.autotune:
            return candidates[0]
        tried = self._measured.get(key, {})
        for name in candidates:
            if name not in tried:
                return name  # next trial, in modeled-cost order
        # All tried but not settled yet (shouldn't happen; be safe).
        return min(tried, key=tried.get)

    def _record_measurement(self, n: int, nbytes: int, name: str,
                            d_messages: int, d_bytes: int) -> None:
        """Fold one bucket's observed traffic into the autotune cache.

        The measured "time" is the alpha-beta cost of the traffic actually
        seen on the wire — messages pay latency, bytes pay bandwidth —
        normalized per payload byte so buckets of different sizes within a
        size class compare fairly.  Deterministic by construction: no wall
        clock is read.
        """
        if not self.config.autotune:
            return
        key = (n, self._size_class(nbytes))
        ic = _INTERCONNECT
        cost = d_messages * ic.alpha + d_bytes / ic.bandwidth
        per_byte = cost / max(nbytes, 1)
        tried = self._measured.setdefault(key, {})
        prev = tried.get(name)
        tried[name] = per_byte if prev is None else min(prev, per_byte)
        candidates = self._candidates(n, nbytes)
        if key not in self._settled and all(c in tried for c in candidates):
            self._settled[key] = min(tried, key=tried.get)

    # -- compression state ---------------------------------------------------

    @property
    def compression(self) -> str | None:
        return self.config.compression

    def comm_state(self) -> dict[str, np.ndarray]:
        """Error-feedback residuals for every rank, ``rank{r}.{tensor}`` keys."""
        if self._compressors is None:
            return {}
        out: dict[str, np.ndarray] = {}
        for r, comp in enumerate(self._compressors):
            for tensor, residual in comp.state().items():
                out[f"rank{r}.{tensor}"] = residual
        return out

    def load_comm_state(self, state: dict[str, np.ndarray]) -> None:
        """Restore residuals saved by :meth:`comm_state`."""
        if self._compressors is None:
            return
        per_rank: list[dict[str, np.ndarray]] = [dict() for _ in self._compressors]
        for key, value in state.items():
            rank_part, _, tensor = key.partition(".")
            r = int(rank_part.removeprefix("rank"))
            if r < len(per_rank):
                per_rank[r][tensor] = value
        for comp, residuals in zip(self._compressors, per_rank):
            comp.load_state(residuals)

    def shrink(self, survivors: list[int]) -> None:
        """Elastic shrink: keep only surviving ranks' compressor state.

        The autotune cache keys include the world size, so entries for the
        old size simply stop being consulted.
        """
        if self._compressors is not None:
            self._compressors = [self._compressors[r] for r in survivors]
        self.world_size = len(survivors)
        self._pack_key, self._pack = None, []

    def _plan(self, like: dict[str, np.ndarray]) -> FusionPlan:
        """The fusion plan for tensors shaped and typed like ``like``.

        Bucket in backward order: the last-registered tensor's gradient is
        produced first during backprop, so reversed name order is the
        readiness order the overlap model replays.
        """
        sizes = {k: int(g.nbytes) for k, g in like.items()}
        return fuse_order(list(reversed(like)), sizes, self.config.bucket_bytes)

    def _pack_buffers(self, like: dict[str, np.ndarray], plan: FusionPlan,
                      n: int) -> list[np.ndarray]:
        """One ``(n, elems)`` buffer per bucket, row ``r`` rank ``r``'s,
        rebuilt only when the fusion plan, a gradient dtype or the world
        size changes.

        Each buffer has the dtype the strategy reduces in, so packing is the
        only copy a dense exchange makes.  Bucket buffers are the largest
        arrays a trainer keeps, so each sits on a memory mapping of its own
        (:func:`~repro.framework.ops.workspace.mapped`) and returns to the
        OS when the engine drops it.
        """
        dtypes = tuple(_reduce_dtype(np.result_type(*[like[k].dtype
                                                      for k in group]))
                       for group in plan.groups)
        key = (tuple(map(tuple, plan.groups)), tuple(plan.group_bytes),
               dtypes, n)
        if key != self._pack_key:
            self._pack = [mapped((n, sum(like[k].size for k in group)),
                                 dtype)
                          for group, dtype in zip(plan.groups, dtypes)]
            self._pack_key = key
        return self._pack

    def bucket_slots(self, like: dict[str, np.ndarray]
                     ) -> dict[str, np.ndarray]:
        """Each tensor's ``(ranks, *shape)`` slot in the bucket buffers an
        exchange of gradients shaped and typed like ``like`` (in that name
        order) reduces in.  A gradient written into its row of its slot is
        exchanged without a pack copy; the slot is overwritten by the
        average, and by the next exchange."""
        n = self.world_size
        plan = self._plan(like)
        slots = {}
        for group, bucket in zip(plan.groups,
                                 self._pack_buffers(like, plan, n)):
            offset = 0
            for k in group:
                size = like[k].size
                slots[k] = bucket[:, offset:offset + size].reshape(
                    (n,) + like[k].shape)
                offset += size
        return slots

    def _pack_row(self, row: np.ndarray, tensors: list[np.ndarray]) -> None:
        """Copy ``tensors`` flat into one rank's bucket row (converting as
        ``astype`` would), skipping each one already in its slot there.  A
        tensor inside this bucket can only be its own slot (slots never
        overlap, and a new layout gets new buffers), so overlap with the
        destination is the test."""
        offset = 0
        for t in tensors:
            dst = row[offset:offset + t.size]
            offset += t.size
            if not (t.base is row.base and np.may_share_memory(t, dst)):
                np.copyto(dst, t.reshape(-1), casting="unsafe")
                self.pack_copies += 1

    # -- the exchange itself -------------------------------------------------

    def exchange(
        self,
        world: World,
        per_rank_grads: list[dict[str, np.ndarray]],
    ) -> tuple[list[dict[str, np.ndarray]], EngineReport]:
        """Average gradients across ranks adaptively.

        One ``{name: gradient}`` dict per rank in (every rank holds the
        same names and shapes), the averaged dicts (identical across ranks)
        plus a report out.  On the dense path the averaged tensors are
        views of the engine's bucket buffers: they stay valid until this
        engine's next ``exchange``, which overwrites them.  An input that
        already sits in its :meth:`bucket_slots` slot is reduced where it
        lies, and so is overwritten by its average; every other input is
        only read.
        """
        n = world.size
        if len(per_rank_grads) != n:
            raise ValueError(f"need {n} gradient dicts, got {len(per_rank_grads)}")
        names = list(per_rank_grads[0].keys())
        for r, grads in enumerate(per_rank_grads):
            if list(grads.keys()) != names:
                raise ValueError(f"rank {r} tensor names differ from rank 0")
        if self._compressors is not None and len(self._compressors) != n:
            raise ValueError(
                f"engine sized for {len(self._compressors)} ranks, world has {n}")

        cfg = self.config
        tel = get_active()
        tracer = tel.tracer

        plan = self._plan(per_rank_grads[0])
        sizes = {k: int(g.nbytes) for k, g in per_rank_grads[0].items()}
        dense_bytes = sum(sizes.values())

        before_msgs = world.stats.total_messages
        before_bytes = world.stats.total_bytes
        packs = (None if self._compressors is not None
                 else self._pack_buffers(per_rank_grads[0], plan, n))
        averaged: list[dict[str, np.ndarray]] = [dict() for _ in range(n)]
        decisions: dict[int, str] = {}
        wire_bytes = 0
        bucket_times: list[float] = []

        with tracer.span("engine.exchange", category="comm", tensors=len(names),
                         buckets=plan.num_collectives, ranks=n):
            for bucket_index, group in enumerate(plan.groups):
                group_bytes = plan.group_bytes[bucket_index]
                bucket_msgs0 = world.stats.total_messages
                bucket_bytes0 = world.stats.total_bytes
                with tracer.span("engine.bucket", category="comm",
                                 bucket=bucket_index, tensors=len(group),
                                 bytes=group_bytes):
                    if self._compressors is not None:
                        results, payload = self._exchange_compressed(
                            world, per_rank_grads, group)
                        decisions[bucket_index] = cfg.compression
                        wire_bytes += payload
                        bucket_times.append(
                            2 * (n - 1) * _INTERCONNECT.transfer_time(payload))
                    else:
                        algo = self.select(n, group_bytes)
                        strategy = get_strategy(algo)
                        bucket = packs[bucket_index]
                        for r in range(n):
                            self._pack_row(bucket[r], [per_rank_grads[r][k]
                                                       for k in group])
                        results = strategy.run(
                            world, list(bucket), average=True,
                            **self._strategy_params(algo))
                        decisions[bucket_index] = algo
                        wire_bytes += group_bytes
                        self._record_measurement(
                            n, group_bytes, algo,
                            world.stats.total_messages - bucket_msgs0,
                            world.stats.total_bytes - bucket_bytes0)
                        bucket_times.append(strategy.modeled_time(
                            n, float(group_bytes), nvlink=_NVLINK,
                            interconnect=_INTERCONNECT,
                            **self._strategy_params(algo)))
                # Whatever the strategy returned (the bucket rows for the
                # built-ins) is split back into named tensors.
                for r in range(n):
                    averaged[r].update(unpack_bucket(
                        results[r], group, per_rank_grads[r]))

        overlap_fraction = 0.0
        if bucket_times:
            overlap_fraction = self._overlap_fraction(
                plan, sizes, bucket_times)

        data_messages = world.stats.total_messages - before_msgs
        data_bytes = world.stats.total_bytes - before_bytes
        compression_ratio = dense_bytes / wire_bytes if wire_bytes else 1.0
        report = EngineReport(
            fusion=plan,
            data_messages=data_messages,
            data_bytes=data_bytes,
            dense_bytes=dense_bytes,
            wire_bytes=wire_bytes,
            compression_ratio=compression_ratio,
            overlap_fraction=overlap_fraction,
            decisions=decisions,
        )
        if tel.enabled:
            m = tel.metrics
            m.counter("comm.engine.exchanges").inc()
            m.counter("comm.engine.messages").inc(data_messages)
            m.counter("comm.engine.bytes_on_wire").inc(data_bytes)
            m.counter("comm.engine.collectives").inc(plan.num_collectives)
            m.gauge("comm.engine.compression_ratio").set(compression_ratio)
            m.gauge("comm.engine.overlap_fraction").set(overlap_fraction)
        # Restore canonical key order for determinism downstream.
        averaged = [{k: g[k] for k in names} for g in averaged]
        self.last_report = report
        return averaged, report

    def _exchange_compressed(
        self,
        world: World,
        per_rank_grads: list[dict[str, np.ndarray]],
        group: list[str],
    ) -> tuple[list[np.ndarray], int]:
        """One compressed bucket exchange; returns per-rank dense results
        (flattened bucket) and the per-rank wire payload in bytes."""
        n = world.size
        offsets: dict[str, int] = {}
        cursor = 0
        for k in group:
            offsets[k] = cursor
            cursor += per_rank_grads[0][k].size
        bucket_size = cursor
        if self.config.compression == "topk":
            fused: list[SparseGradient] = []
            for r in range(n):
                comp = self._compressors[r]
                idx_parts, val_parts = [], []
                for k in group:
                    sg = comp.compress(k, per_rank_grads[r][k])
                    idx_parts.append(sg.indices + offsets[k])
                    val_parts.append(sg.values)
                fused.append(SparseGradient(
                    np.concatenate(idx_parts), np.concatenate(val_parts),
                    (bucket_size,)))
            payload = fused[0].nbytes
            results = sparse_allreduce(world, fused, average=True)
            return [res.ravel() for res in results], payload
        # int8: concatenate per-tensor codes; scales ride as one vector.
        per_rank_q: list[np.ndarray] = []
        per_rank_scales: list[np.ndarray] = []
        for r in range(n):
            comp = self._compressors[r]
            q_parts, scales = [], []
            for k in group:
                qg = comp.compress(k, per_rank_grads[r][k])
                q_parts.append(qg.q)
                scales.append(qg.scale)
            per_rank_q.append(np.concatenate(q_parts))
            per_rank_scales.append(np.array(scales, dtype=np.float32))
        payload = per_rank_q[0].nbytes + per_rank_scales[0].nbytes
        tag = 720
        for src in range(n):
            for dst in range(n):
                if dst != src:
                    world.send(per_rank_q[src], src, dst, tag)
                    world.send(per_rank_scales[src], src, dst, tag + 1)
        bounds = [offsets[k] for k in group] + [bucket_size]
        results = []
        for dst in range(n):
            # Canonical src order: every rank performs the same float adds.
            total = np.zeros(bucket_size, dtype=np.float32)
            for src in range(n):
                if src == dst:
                    q, scales = per_rank_q[dst], per_rank_scales[dst]
                else:
                    q = world.recv(dst, src, tag)
                    scales = world.recv(dst, src, tag + 1)
                for t in range(len(group)):
                    lo, hi = bounds[t], bounds[t + 1]
                    total[lo:hi] += q[lo:hi].astype(np.float32) * scales[t]
            total /= n
            results.append(total)
        return results, payload

    def _overlap_fraction(
        self,
        plan: FusionPlan,
        sizes: dict[str, int],
        bucket_times: list[float],
    ) -> float:
        """Replay the exchange on the event queue to score comm hiding.

        Backward compute emits gradients in bucket order (buckets were built
        in backward order); each bucket becomes ready when its *last* tensor
        does, then queues on a single serialized comm channel — the
        generalization of the paper's gradient-lag pipelining.  Returns the
        fraction of total comm time hidden under compute.
        """
        q = EventQueue()
        compute_t = 0.0
        ready_times = []
        for group in plan.groups:
            for name in group:
                compute_t += sizes[name] * _COMPUTE_S_PER_BYTE
            ready_times.append(compute_t)
        total_compute = compute_t
        state = {"channel_free": 0.0}

        def launch(bucket_comm_time: float):
            def cb():
                start = max(q.now, state["channel_free"])
                state["channel_free"] = start + bucket_comm_time
            return cb

        for ready, t_comm in zip(ready_times, bucket_times):
            q.schedule_at(ready, launch(t_comm))
        q.run()
        total_comm = sum(bucket_times)
        if total_comm <= 0.0:
            return 1.0
        exposed = max(0.0, state["channel_free"] - total_compute)
        return max(0.0, min(1.0, 1.0 - exposed / total_comm))
