"""Analytic latency/bandwidth cost models for the all-reduce algorithms.

These are the standard alpha-beta (Hockney) models; the weak-scaling
performance model (:mod:`repro.perf.scaling`) uses them to estimate the
exposed communication time per training step on Summit and Piz Daint.

Conventions: ``alpha`` is per-message latency in seconds, ``bandwidth`` in
bytes/second, ``volume`` in bytes.  :class:`Link` is declared with the
machine specs in :mod:`repro.hpc.specs`, so ``hpc`` imports nothing from
``comm``.
"""
from __future__ import annotations

from math import ceil, log2

from ..hpc.specs import Link

__all__ = [
    "Link",
    "ring_allreduce_time",
    "tree_allreduce_time",
    "hierarchical_allreduce_time",
    "centralized_control_time",
    "hierarchical_control_time",
]


def ring_allreduce_time(n: int, volume: float, link: Link) -> float:
    """Systolic ring (NCCL): 2(n-1) steps, each moving V/n bytes.

    Bandwidth-optimal (2 (n-1)/n V bytes per rank) but latency grows
    linearly with n.
    """
    if n <= 1:
        return 0.0
    steps = 2 * (n - 1)
    return steps * link.alpha + 2.0 * (n - 1) / n * volume / link.bandwidth


def tree_allreduce_time(n: int, volume: float, link: Link) -> float:
    """Binomial tree reduce+broadcast: 2 ceil(log2 n) rounds of V bytes."""
    if n <= 1:
        return 0.0
    rounds = 2 * ceil(log2(n))
    return rounds * link.transfer_time(volume)


def hierarchical_allreduce_time(
    nodes: int,
    volume: float,
    nvlink: Link,
    interconnect: Link,
    gpus_per_node: int = 6,
    parallel_devices: int = 4,
) -> float:
    """The paper's hybrid NCCL+MPI all-reduce (Section V-A3).

    Intra-node NCCL ring over ``gpus_per_node`` GPUs, then
    ``parallel_devices`` concurrent inter-node reductions each carrying
    ``volume / parallel_devices`` (one per virtual IB device), then an
    intra-node NCCL broadcast.
    """
    t_intra_reduce = ring_allreduce_time(gpus_per_node, volume, nvlink)
    t_inter = tree_allreduce_time(nodes, volume / parallel_devices, interconnect)
    # Broadcast of the final result inside the node: one ring pass.
    t_intra_bcast = (gpus_per_node - 1) * nvlink.alpha + volume / nvlink.bandwidth
    return t_intra_reduce + t_inter + t_intra_bcast


#: Control messages/second one rank can sustain (a few million, per the
#: paper's narrative).
CONTROLLER_MSG_RATE = 2.0e6
#: The control plane's aggregation-tree radix and its per-hop latency, s.
RADIX = 4
HOP_LATENCY_S = 5.0e-6


def centralized_control_time(ranks: int, tensors_per_step: int) -> float:
    """Control-plane time per step with the original rank-0 scheduler.

    Rank 0 must receive one readiness and send one go message per (rank,
    tensor): ``2 * ranks * tensors`` messages serialized through one
    process at ``CONTROLLER_MSG_RATE``.
    """
    messages = 2 * max(ranks - 1, 0) * tensors_per_step
    return messages / CONTROLLER_MSG_RATE


def hierarchical_control_time(ranks: int, tensors_per_step: int) -> float:
    """Control-plane time per step with the radix-r aggregation tree.

    Every rank handles at most ``2 (RADIX + 1)`` messages per tensor and the
    readiness/go waves traverse ``2 log_r(ranks)`` hops.
    """
    if ranks <= 1:
        return 0.0
    per_rank_messages = 2 * (RADIX + 1) * tensors_per_step
    depth = ceil(log2(max(ranks, 2)) / log2(RADIX + 1))
    return per_rank_messages / CONTROLLER_MSG_RATE + 2 * depth * HOP_LATENCY_S
