"""Execution timelines for gradient exchanges (the Horovod-timeline analogue).

Horovod ships a Chrome-trace timeline that the paper's team used to find the
negotiation bottleneck.  This module reconstructs the same artifact from our
simulated exchange: per tensor, a NEGOTIATE phase (readiness to go-message)
followed by a fused ALLREDUCE phase, serialized into the Chrome
``chrome://tracing`` JSON event format; the one exporter that writes the file
is :func:`repro.telemetry.export.write_chrome_trace`.
"""
from __future__ import annotations

from dataclasses import dataclass

from .coordinator import NegotiationResult
from .horovod import FusionPlan

__all__ = ["TimelineEvent", "build_timeline", "chrome_trace_records"]


@dataclass(frozen=True)
class TimelineEvent:
    """One phase of one tensor's journey through the exchange."""

    name: str          # tensor or fusion-buffer name
    phase: str         # "negotiate" | "allreduce"
    start_us: float
    duration_us: float
    lane: int          # display row (fusion-buffer index)


def build_timeline(
    negotiation: NegotiationResult,
    fusion: FusionPlan,
    tensor_names: list[str],
    allreduce_seconds_per_byte: float = 1.0 / 10e9,
    sizes: dict[str, int] | None = None,
) -> list[TimelineEvent]:
    """Reconstruct per-tensor negotiate/all-reduce intervals.

    Negotiation intervals come from the decision times; each fusion buffer's
    all-reduce starts when its last tensor is released and previous buffer
    (if any) finished, with duration proportional to its byte volume.
    """
    if len(negotiation.order) != len(tensor_names):
        raise ValueError("negotiation order and tensor names disagree")
    decision_by_tensor = {
        t: float(negotiation.decision_times[pos])
        for pos, t in enumerate(negotiation.order)
    }
    events: list[TimelineEvent] = []
    ordered_names = [tensor_names[t] for t in negotiation.order]
    name_to_decision = {
        name: decision_by_tensor[negotiation.order[i]]
        for i, name in enumerate(ordered_names)
    }
    for name in ordered_names:
        events.append(TimelineEvent(
            name=name, phase="negotiate", start_us=0.0,
            duration_us=name_to_decision[name] * 1e6, lane=0))
    # Fusion buffers execute back-to-back after their tensors are released.
    clock = 0.0
    for lane, (group, nbytes) in enumerate(zip(fusion.groups, fusion.group_bytes)):
        ready = max(name_to_decision[n] for n in group)
        start = max(clock, ready)
        duration = nbytes * allreduce_seconds_per_byte
        events.append(TimelineEvent(
            name="+".join(group) if len(group) <= 3 else
            f"{group[0]}+{len(group) - 1} more",
            phase="allreduce", start_us=start * 1e6,
            duration_us=duration * 1e6, lane=lane + 1))
        clock = start + duration
    return events


def _lane_name(lane: int) -> str:
    """Stable display name for a timeline lane.

    Lane 0 is the negotiation row; lane ``n`` (n >= 1) is fusion buffer
    ``n - 1``'s all-reduce row.  Names depend only on the lane index, so
    repeated :func:`build_timeline` calls serialize identically.
    """
    return "negotiate" if lane == 0 else f"allreduce-{lane - 1}"


def chrome_trace_records(events: list[TimelineEvent], pid: int = 0, *,
                         seen_meta: set | None = None,
                         process_name: str | None = None,
                         thread_names: dict[int, str] | None = None) -> list[dict]:
    """Serialize events to Chrome trace records (the single serializer).

    The telemetry Chrome exporter
    (:func:`repro.telemetry.export.chrome_trace`, which merges these events
    into the whole-run trace) goes through this function, so the event
    format is defined in exactly one place.

    ``process_name`` (when given) and per-lane thread names are emitted as
    Chrome "M" metadata records exactly once per (pid, lane): ``seen_meta``
    carries the dedup state across calls, so merging the records of repeated
    :func:`build_timeline` runs into one document never duplicates metadata.
    ``thread_names`` overrides the default stable lane names.
    """
    if seen_meta is None:
        seen_meta = set()
    records: list[dict] = []
    if process_name is not None and ("process_name", pid) not in seen_meta:
        seen_meta.add(("process_name", pid))
        records.append({"name": "process_name", "ph": "M", "pid": pid,
                        "tid": 0, "args": {"name": process_name}})
    for ev in events:
        if ("thread_name", pid, ev.lane) not in seen_meta:
            seen_meta.add(("thread_name", pid, ev.lane))
            name = (thread_names or {}).get(ev.lane, _lane_name(ev.lane))
            records.append({"name": "thread_name", "ph": "M", "pid": pid,
                            "tid": ev.lane, "args": {"name": name}})
        records.append({
            "name": ev.name,
            "cat": ev.phase,
            "ph": "X",                       # complete event
            "ts": ev.start_us,
            "dur": max(ev.duration_us, 0.01),
            "pid": pid,
            "tid": ev.lane,
            "args": {"phase": ev.phase},
        })
    return records

