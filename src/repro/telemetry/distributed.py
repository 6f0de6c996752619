"""Cross-rank trace analysis: message links, step attribution, stragglers.

The paper's §VI methodology is an *attribution* argument: at scale you must
know which rank and which phase (compute vs allreduce vs I/O) holds the
critical path of a step, and quote it as a median with a central-68%
interval.  This module is that analyzer for our merged traces:

* :class:`MessageLink` — every ``category="comm.msg"`` event pair recorded
  by :class:`repro.comm.simmpi.World` (matched on ``msg_id``) becomes a
  causal edge between the sender's and receiver's rank lanes.
* :class:`CrossRankTrace` — groups spans into training steps (via their
  ``step`` arg or envelope containment), partitions each step's elapsed
  time *exclusively* into compute / comm / io / stall, and names the
  straggler rank.
* :meth:`CrossRankTrace.summarize` — §VI-style median + central-68%
  per-phase breakdowns over steps, as
  :class:`repro.perf.stats.ThroughputStats`.

Attribution is an interval partition with comm > io > compute priority over
the step envelope; whatever interval no span claims is **stall** — so the
four phases always sum exactly to the step's elapsed time, the invariant
the ``perf.breakdown`` cross-validation test pins down.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from .tracer import Span

__all__ = ["MessageLink", "StepBreakdown", "CrossRankTrace",
           "PHASE_OF_CATEGORY"]

# Span category -> exclusive phase.  Categories absent here (resilience,
# comm.msg instants, health, ...) do not claim step time: resilience spans
# like ``elastic_recovery`` surface as *stall* (the residual), which is the
# honest reading — that time bought no forward progress.
PHASE_OF_CATEGORY = {
    "trainer": "compute",
    "serve": "compute",
    "app": "compute",
    "comm": "comm",
    "io": "io",
}

PHASES = ("compute", "comm", "io", "stall")


@dataclass
class MessageLink:
    """One wire message's causal edge: send event -> recv (or drop) event."""

    msg_id: int
    src: int
    dst: int
    tag: int
    send: Span | None = None
    recv: Span | None = None
    dropped: bool = False

    @property
    def matched(self) -> bool:
        return self.send is not None and self.recv is not None


@dataclass
class StepBreakdown:
    """Exclusive phase attribution of one training step's elapsed time."""

    step: int
    start_us: float
    end_us: float
    compute_s: float
    comm_s: float
    io_s: float
    stall_s: float
    per_rank_s: dict[int, float] = field(default_factory=dict)
    straggler_rank: int | None = None

    @property
    def total_s(self) -> float:
        return (self.end_us - self.start_us) / 1e6

    def phase_seconds(self) -> dict[str, float]:
        return {"compute": self.compute_s, "comm": self.comm_s,
                "io": self.io_s, "stall": self.stall_s}

    def as_dict(self) -> dict:
        return {
            "step": self.step, "total_s": self.total_s,
            "compute_s": self.compute_s, "comm_s": self.comm_s,
            "io_s": self.io_s, "stall_s": self.stall_s,
            "per_rank_s": {str(r): v for r, v in sorted(self.per_rank_s.items())},
            "straggler_rank": self.straggler_rank,
        }


# -- interval arithmetic (microsecond timelines) -----------------------------

def _union(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Merge possibly-overlapping intervals into a disjoint sorted union."""
    out: list[tuple[float, float]] = []
    for lo, hi in sorted(i for i in intervals if i[1] > i[0]):
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def _subtract(intervals: list[tuple[float, float]],
              holes: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Disjoint union minus disjoint union (both outputs of :func:`_union`)."""
    out: list[tuple[float, float]] = []
    for lo, hi in intervals:
        cur = lo
        for hlo, hhi in holes:
            if hhi <= cur or hlo >= hi:
                continue
            if hlo > cur:
                out.append((cur, hlo))
            cur = max(cur, hhi)
            if cur >= hi:
                break
        if cur < hi:
            out.append((cur, hi))
    return out


def _total_us(intervals: list[tuple[float, float]]) -> float:
    return sum(hi - lo for lo, hi in intervals)


class CrossRankTrace:
    """The merged cross-rank span DAG of one (simulated) distributed run."""

    def __init__(self, spans: list[Span]):
        self.spans = list(spans)
        self.links: dict[int, MessageLink] = {}
        for s in self.spans:
            if s.category != "comm.msg":
                continue
            edge = s.args.get("msg_edge")
            msg_id = s.args.get("msg_id")
            if edge not in ("send", "recv", "drop") or msg_id is None:
                continue
            link = self.links.get(msg_id)
            if link is None:
                link = self.links[msg_id] = MessageLink(
                    msg_id=msg_id, src=s.args.get("src", -1),
                    dst=s.args.get("dst", -1), tag=s.args.get("tag", 0))
            if edge == "send":
                link.send = s
            elif edge == "recv":
                link.recv = s
            else:
                link.recv = s
                link.dropped = True

    # -- message links -------------------------------------------------------

    def matched(self) -> list[MessageLink]:
        """Links whose send and recv (or drop notice) were both recorded."""
        return [l for l in self.links.values() if l.matched]

    def unmatched(self) -> list[MessageLink]:
        """Sends still in flight at trace end (or recvs of untraced sends)."""
        return [l for l in self.links.values() if not l.matched]

    # -- step grouping -------------------------------------------------------

    def step_spans(self) -> dict[int, list[Span]]:
        """Spans grouped by training step.

        A span with a ``step`` arg belongs to that step; any other span
        falls into the step whose envelope (built from the stepped spans)
        contains its start time.  Zero-width instants never claim time but
        still ride along for DAG walks.
        """
        groups: dict[int, list[Span]] = defaultdict(list)
        rest: list[Span] = []
        for s in self.spans:
            step = s.args.get("step")
            if step is None:
                rest.append(s)
            else:
                groups[int(step)].append(s)
        envelopes = {
            step: (min(s.start_us for s in group),
                   max(s.end_us for s in group))
            for step, group in groups.items()
        }
        ordered = sorted(envelopes.items(), key=lambda kv: kv[1][0])
        for s in rest:
            for step, (lo, hi) in ordered:
                if lo <= s.start_us <= hi:
                    groups[step].append(s)
                    break
        return dict(groups)

    def step_breakdowns(self) -> list[StepBreakdown]:
        """Exclusive compute/comm/io/stall attribution per step."""
        out: list[StepBreakdown] = []
        for step, group in sorted(self.step_spans().items()):
            lo = min(s.start_us for s in group)
            hi = max(s.end_us for s in group)
            claims: dict[str, list[tuple[float, float]]] = {
                "compute": [], "comm": [], "io": []}
            per_rank: dict[int, float] = defaultdict(float)
            for s in group:
                if s.kind == "instant" or s.duration_us <= 0:
                    continue
                rank = s.args.get("rank")
                if rank is not None:
                    per_rank[int(rank)] += s.duration_us / 1e6
                phase = PHASE_OF_CATEGORY.get(s.category)
                if phase is not None:
                    claims[phase].append((s.start_us, s.end_us))
            comm = _union(claims["comm"])
            io = _subtract(_union(claims["io"]), comm)
            compute = _subtract(_subtract(_union(claims["compute"]), comm),
                                _union(io))
            comm_s = _total_us(comm) / 1e6
            io_s = _total_us(io) / 1e6
            compute_s = _total_us(compute) / 1e6
            stall_s = max(0.0, (hi - lo) / 1e6 - comm_s - io_s - compute_s)
            straggler = (max(per_rank, key=per_rank.get)
                         if per_rank else None)
            out.append(StepBreakdown(
                step=step, start_us=lo, end_us=hi, compute_s=compute_s,
                comm_s=comm_s, io_s=io_s, stall_s=stall_s,
                per_rank_s=dict(per_rank), straggler_rank=straggler))
        return out

    # -- §VI summaries -------------------------------------------------------

    def summarize(self) -> dict:
        """Median + central-68% seconds per phase, over steps (§VI style).

        Returns ``{phase: repro.perf.stats.ThroughputStats}``.  Imported
        lazily: ``repro.perf`` pulls in comm/hpc, which import telemetry.
        """
        from ..perf.stats import central68

        breakdowns = self.step_breakdowns()
        return {phase: central68([b.phase_seconds()[phase] for b in breakdowns])
                for phase in PHASES}

    def straggler_counts(self) -> dict[int, int]:
        """How many steps each rank was the straggler of."""
        counts: dict[int, int] = defaultdict(int)
        for b in self.step_breakdowns():
            if b.straggler_rank is not None:
                counts[b.straggler_rank] += 1
        return dict(counts)
