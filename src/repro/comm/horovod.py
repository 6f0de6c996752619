"""Horovod-style synchronous gradient exchange with tensor fusion.

Combines the pieces the paper's training loop relies on:

* per-tensor readiness negotiation (control plane, either the centralized
  original or the paper's hierarchical tree);
* tensor *fusion* — consecutive negotiated tensors are packed into one
  buffer until a byte threshold, amortizing collective latency (gradient
  lag increases the batching opportunity, Section V-B4);
* the data-plane all-reduce itself, in any of the implemented algorithms.

``allreduce_gradients`` is the functional entry point used by the
distributed trainer: given each rank's gradient dict, it returns the
averaged gradients every rank would hold after the exchange, plus traffic
statistics.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..telemetry import get_active
from .api import get_strategy
from .coordinator import (
    NegotiationResult,
    ReadinessSchedule,
    centralized_negotiation,
    hierarchical_negotiation,
)
from .simmpi import World

__all__ = ["FusionPlan", "HorovodConfig", "ExchangeReport", "allreduce_gradients",
           "fuse_order", "pack_bucket", "unpack_bucket"]


@dataclass(frozen=True)
class HorovodConfig:
    """Knobs for the gradient exchange."""

    algorithm: str = "hierarchical"
    control_plane: str = "hierarchical"   # or "centralized"
    control_radix: int = 4
    fusion_threshold_bytes: int = 64 * 1024 * 1024
    gpus_per_node: int = 6
    mpi_ranks_per_node: int = 4

    def __post_init__(self):
        try:
            get_strategy(self.algorithm)
        except ValueError:
            raise ValueError(f"unknown algorithm {self.algorithm!r}") from None
        if self.control_plane not in ("centralized", "hierarchical"):
            raise ValueError(f"unknown control plane {self.control_plane!r}")


@dataclass
class FusionPlan:
    """Groups of tensor names reduced together in one collective."""

    groups: list[list[str]]
    group_bytes: list[int]

    @property
    def num_collectives(self) -> int:
        return len(self.groups)


def fuse_order(order: list[str], sizes: dict[str, int], threshold_bytes: int) -> FusionPlan:
    """Pack tensors (in negotiated order) into fusion buffers."""
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


def pack_bucket(tensors: list[np.ndarray],
                out: np.ndarray | None = None) -> np.ndarray:
    """Concatenate ``tensors`` flat into one fusion buffer (``out`` if given,
    converting to its dtype as ``astype`` would)."""
    return np.concatenate([t.reshape(-1) for t in tensors], out=out,
                          casting="unsafe")


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
class ExchangeReport:
    """What one gradient exchange cost.

    ``negotiation``/``fusion`` are None for exchanges that bypass the
    Horovod control plane (e.g. the sparse compressed path).
    """

    negotiation: NegotiationResult | None
    fusion: FusionPlan | None
    data_messages: int
    data_bytes: int


def allreduce_gradients(
    world: World,
    per_rank_grads: list[dict[str, np.ndarray]],
    config: HorovodConfig | None = None,
    seed: int = 0,
) -> tuple[list[dict[str, np.ndarray]], ExchangeReport]:
    """Synchronously average gradients across ranks.

    Parameters
    ----------
    per_rank_grads:
        One ``{tensor_name: gradient}`` dict per rank.  All ranks must hold
        the same tensor names/shapes (they run identical model replicas).

    Returns the averaged gradient dicts (identical across ranks) and an
    :class:`ExchangeReport` describing negotiation and traffic.
    """
    cfg = config or HorovodConfig()
    n = world.size
    if len(per_rank_grads) != n:
        raise ValueError(f"need {n} gradient dicts, got {len(per_rank_grads)}")
    names = list(per_rank_grads[0].keys())
    for r, grads in enumerate(per_rank_grads):
        if list(grads.keys()) != names:
            raise ValueError(f"rank {r} tensor names differ from rank 0")

    tel = get_active()
    tracer = tel.tracer

    # Control plane: negotiate a total order over tensors.
    with tracer.span("negotiate", category="comm", tensors=len(names),
                     control_plane=cfg.control_plane):
        schedule = ReadinessSchedule.random(n, len(names), seed=seed)
        if cfg.control_plane == "centralized":
            negotiation = centralized_negotiation(schedule)
        else:
            negotiation = hierarchical_negotiation(schedule, radix=cfg.control_radix)
    ordered_names = [names[t] for t in negotiation.order]

    # Fusion: pack negotiated tensors into buffers.
    sizes = {k: per_rank_grads[0][k].nbytes for k in names}
    plan = fuse_order(ordered_names, sizes, cfg.fusion_threshold_bytes)
    if tel.enabled:
        m = tel.metrics
        m.counter("comm.fused_bytes").inc(sum(plan.group_bytes))
        m.counter("comm.collectives").inc(plan.num_collectives)
        for nbytes in plan.group_bytes:
            m.histogram("comm.fusion_buffer_bytes").observe(nbytes)

    # Data plane: one collective per fusion buffer.  The packed buffers are
    # fresh, so the strategy reduces in them directly.
    extra = {}
    if cfg.algorithm == "hierarchical":
        extra = dict(gpus_per_node=cfg.gpus_per_node,
                     mpi_ranks_per_node=cfg.mpi_ranks_per_node)
    strategy = get_strategy(cfg.algorithm)
    world.stats.reset()
    averaged: list[dict[str, np.ndarray]] = [dict() for _ in range(n)]
    for buffer_index, group in enumerate(plan.groups):
        flat_parts = [pack_bucket([per_rank_grads[r][k] for k in group])
                      for r in range(n)]
        with tracer.span("fused_allreduce", category="comm",
                         buffer=buffer_index, tensors=len(group),
                         bytes=plan.group_bytes[buffer_index]):
            results = strategy.run(world, flat_parts, average=True, **extra)
        for r in range(n):
            averaged[r].update(unpack_bucket(results[r], group,
                                             per_rank_grads[r]))
    report = ExchangeReport(
        negotiation=negotiation,
        fusion=plan,
        data_messages=world.stats.total_messages,
        data_bytes=world.stats.total_bytes,
    )
    # Restore canonical key order for determinism downstream.
    averaged = [{k: g[k] for k in names} for g in averaged]
    return averaged, report
