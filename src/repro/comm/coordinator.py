"""Horovod control planes: centralized scheduler vs hierarchical tree.

Background (Section V-A3).  Each TensorFlow process schedules graph ops
independently, so different ranks become ready to all-reduce tensors in
different orders; running collectives in mismatched orders deadlocks.
Horovod's fix is a negotiation: every rank reports readiness per tensor to a
controller (rank 0), which announces a total order once all ranks are ready.
At >100 all-reduces per step and tens of thousands of ranks, rank 0 must
process millions of control messages per second — the bottleneck the paper
hit.

The paper's innovation: organize ranks into a radix-``r`` tree.  Readiness
aggregates up the tree (a node reports a tensor only when all its children
and itself are ready) and the go-announcement relays down, so **no rank
sends or receives more than r+1 messages per tensor**, independent of scale.

This module simulates both protocols over ranks that become ready in
rank-specific random orders, verifies the negotiated order is identical on
every rank, and counts per-rank control messages.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..telemetry import get_active


def _record_negotiation(control_plane: str, result: "NegotiationResult") -> None:
    """Report a finished negotiation round to the active telemetry session."""
    tel = get_active()
    if not tel.enabled:
        return
    m = tel.metrics
    m.counter("comm.negotiation_rounds", control_plane=control_plane).inc()
    m.histogram("comm.controller_load",
                control_plane=control_plane).observe(result.controller_load)
    m.histogram("comm.negotiation_messages",
                control_plane=control_plane).observe(
        float(result.messages_sent.sum() + result.messages_received.sum()))

__all__ = [
    "ReadinessSchedule",
    "NegotiationResult",
    "centralized_negotiation",
    "hierarchical_negotiation",
    "tree_children",
    "tree_parent",
]

#: Mean gap between consecutive tensors' readiness, and the per-rank
#: jitter as a fraction of it, for :meth:`ReadinessSchedule.random`.
MEAN_GAP = 1.0
JITTER = 0.5


@dataclass
class ReadinessSchedule:
    """Per-rank readiness times for each tensor.

    ``times[rank][tensor]`` is the simulation time at which that rank's
    backward pass produced that tensor's gradient.  Random per-rank orderings
    model TensorFlow's independent dynamic scheduling.
    """

    times: np.ndarray  # (ranks, tensors) float

    @staticmethod
    def random(ranks: int, tensors: int, seed: int = 0) -> "ReadinessSchedule":
        rng = np.random.default_rng(seed)
        base = np.cumsum(rng.exponential(MEAN_GAP, size=tensors))
        # Per-rank jitter makes tensors become ready in rank-specific orders,
        # the condition that forces Horovod's negotiation in the first place.
        noise = rng.normal(0.0, JITTER * MEAN_GAP, size=(ranks, tensors))
        return ReadinessSchedule(np.maximum(base[None, :] + noise, 0.0))

    @property
    def ranks(self) -> int:
        return self.times.shape[0]

    @property
    def tensors(self) -> int:
        return self.times.shape[1]


@dataclass
class NegotiationResult:
    """Outcome of a control-plane negotiation."""

    order: list[int]                 # agreed total order of tensor ids
    decision_times: np.ndarray       # (tensors,) time each go was issued
    messages_sent: np.ndarray        # (ranks,) control messages sent per rank
    messages_received: np.ndarray    # (ranks,) control messages received per rank

    @property
    def controller_load(self) -> int:
        """Messages through the busiest rank (the paper's bottleneck metric)."""
        total = self.messages_sent + self.messages_received
        return int(total.max())

    def per_tensor_max_messages(self) -> float:
        """Busiest rank's messages divided by the tensor count."""
        return self.controller_load / max(len(self.order), 1)


def centralized_negotiation(schedule: ReadinessSchedule) -> NegotiationResult:
    """Original Horovod: every rank reports to rank 0; rank 0 broadcasts go.

    Message counts: rank 0 receives (ranks-1) readiness messages and sends
    (ranks-1) go messages per tensor -> O(ranks * tensors) at the root.
    """
    ranks, tensors = schedule.ranks, schedule.tensors
    sent = np.zeros(ranks, dtype=np.int64)
    received = np.zeros(ranks, dtype=np.int64)
    # Hops are free in this model: a tensor is ready once its last rank is.
    all_ready = schedule.times.max(axis=0)
    # Non-root ranks each send one readiness message per tensor.
    sent[1:] += tensors
    received[0] += (ranks - 1) * tensors
    # Go messages: root sends to everyone per tensor.
    sent[0] += (ranks - 1) * tensors
    received[1:] += tensors
    order = sorted(range(tensors), key=lambda t: (all_ready[t], t))
    decisions = np.sort(all_ready)
    result = NegotiationResult(order, decisions, sent, received)
    _record_negotiation("centralized", result)
    return result


def tree_parent(rank: int, radix: int) -> int | None:
    """Parent of ``rank`` in the radix-``r`` aggregation tree (root = 0)."""
    if rank == 0:
        return None
    return (rank - 1) // radix


def tree_children(rank: int, radix: int, size: int) -> list[int]:
    """Children of ``rank`` in the radix-``r`` tree."""
    first = rank * radix + 1
    return [c for c in range(first, min(first + radix, size))]


def hierarchical_negotiation(schedule: ReadinessSchedule, radix: int = 4,
                             hop_latency: float = 0.0) -> NegotiationResult:
    """The paper's tree control plane.

    Readiness aggregates bottom-up (each node sends one message per tensor
    to its parent after its own op and all children are ready); the root
    then relays the go message down the same tree.  Per tensor, a rank sends
    at most 1 + (#children) messages and receives at most (#children) + 1 —
    bounded by radix + 1.
    """
    if radix < 1:
        raise ValueError("radix must be >= 1")
    ranks, tensors = schedule.ranks, schedule.tensors
    sent = np.zeros(ranks, dtype=np.int64)
    received = np.zeros(ranks, dtype=np.int64)
    children = {r: tree_children(r, radix, ranks) for r in range(ranks)}
    depth_order = sorted(range(ranks), key=lambda r: -r)  # leaves first

    # Aggregated readiness time per (rank, tensor), bottom-up.
    agg = schedule.times.copy()
    for r in depth_order:
        for c in children[r]:
            agg[r] = np.maximum(agg[r], agg[c] + hop_latency)
        if r != 0:
            sent[r] += tensors
            received[tree_parent(r, radix)] += tensors
    all_ready = agg[0]

    # Go relays down: each non-leaf sends one message per tensor per child.
    for r in range(ranks):
        kids = children[r]
        if kids:
            sent[r] += tensors * len(kids)
            for c in kids:
                received[c] += tensors
    # Depth of the tree for the decision latency.
    def depth(r: int) -> int:
        d = 0
        while r != 0:
            r = tree_parent(r, radix)
            d += 1
        return d

    max_down_hops = max((depth(r) for r in range(ranks)), default=0)
    order = sorted(range(tensors), key=lambda t: (all_ready[t], t))
    decisions = np.sort(all_ready) + max_down_hops * hop_latency
    result = NegotiationResult(order, decisions, sent, received)
    _record_negotiation("hierarchical", result)
    return result
