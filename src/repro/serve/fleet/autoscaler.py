"""Telemetry-driven autoscaling: streaming windows in, scale decisions out.

The autoscaler closes the loop the streaming layer was built for: it
subscribes to the fleet's per-cell series on the session's
:class:`~repro.telemetry.streaming.StreamingAggregator` —

* ``fleet.arrivals{cell=X}`` (counter delta per window → offered rate),
* ``fleet.service_ms{cell=X}`` (gauge → EWMA per-window service time),
* ``fleet.queue_windows{cell=X}`` (gauge → backlog pressure),

folds each into a time-decayed :class:`~repro.telemetry.streaming.Ewma`,
and on every control tick converts them into a demand estimate::

    demand_replicas = arrival_rps * windows_per_request * service_s
                      + backlog_windows * service_s / DRAIN_HORIZON_S
    target = ceil(demand_replicas / TARGET_UTILIZATION)

Growth and shrink are deliberately asymmetric, the way
:meth:`repro.core.DistributedTrainer.shrink` treats losing ranks as the
careful path: growth reacts fast (short cooldown, up to
``MAX_GROW_STEP`` replicas at once, each admitted through a warm-up
ramp), shrink is slow (long cooldown, one replica per decision, only
when the surviving set would still sit under the utilization target with
hysteresis).  Every decision is returned as a :class:`ScaleDecision` so
the fleet can apply, trace, and report it.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

from ...telemetry.streaming import Ewma, StreamingAggregator, WindowSummary

__all__ = ["AutoscalerConfig", "ScaleDecision", "Autoscaler"]

_CELL_LABEL = re.compile(r"\{cell=([^,}]+)")

# The scaling policy, shared by every fleet and cell.
TARGET_UTILIZATION = 0.70   # demand / capacity we steer toward
SHRINK_UTILIZATION = 0.45   # hysteresis: shrink only below this
GROW_COOLDOWN_S = 2.0
SHRINK_COOLDOWN_S = 8.0
MAX_GROW_STEP = 2           # replicas added per decision
MAX_SHRINK_STEP = 1         # replicas removed per decision
WARMUP_S = 2.0              # admission ramp for a new replica
DRAIN_HORIZON_S = 2.0       # time budget to absorb the backlog
EWMA_HALFLIFE_S = 4.0


@dataclass(frozen=True)
class AutoscalerConfig:
    """Replica bounds for one fleet's autoscaler (shared by all cells)."""

    min_replicas: int = 1
    max_replicas: int = 16

    def __post_init__(self):
        if not 1 <= self.min_replicas <= self.max_replicas:
            raise ValueError("need 1 <= min_replicas <= max_replicas")


@dataclass(frozen=True)
class ScaleDecision:
    """One cell's verdict at one control tick."""

    t: float
    cell: str
    kind: str                   # "grow" | "shrink" | "hold"
    delta: int                  # replicas to add (+) or remove (-)
    target: int                 # clamped target replica count
    current: int
    reason: str
    arrival_rps: float
    service_window_s: float
    backlog_windows: float
    predicted_utilization: float

    def as_dict(self) -> dict:
        return {
            "t": self.t, "cell": self.cell, "kind": self.kind,
            "delta": self.delta, "target": self.target,
            "current": self.current, "reason": self.reason,
            "arrival_rps": self.arrival_rps,
            "service_window_s": self.service_window_s,
            "backlog_windows": self.backlog_windows,
            "predicted_utilization": self.predicted_utilization,
        }


class _CellSignals:
    """EWMA-tracked load signals for one cell."""

    __slots__ = ("arrival_rps", "service_window_s", "backlog_windows",
                 "last_grow_t", "last_shrink_t")

    def __init__(self, halflife_s: float):
        self.arrival_rps = Ewma(halflife_s)
        self.service_window_s = Ewma(halflife_s)
        self.backlog_windows = 0.0
        self.last_grow_t = -math.inf
        self.last_shrink_t = -math.inf


class Autoscaler:
    """Per-cell grow/shrink policy over streaming telemetry windows.

    Attach with :meth:`subscribe` (the fleet does this at construction);
    thereafter every closed ``fleet.*`` window updates the cell's EWMAs,
    and :meth:`decide` turns the current signals into a
    :class:`ScaleDecision`.  Pure function of the observed windows — no
    wall clock, no randomness — so a replayed run scales identically.
    """

    def __init__(self, config: AutoscalerConfig):
        self.config = config
        # Tile windows per request; the fleet sets the replay's mean.
        self.windows_per_request = 1.0
        self.decisions: list[ScaleDecision] = []
        self._cells: dict[str, _CellSignals] = {}

    # -- streaming input -----------------------------------------------------

    def subscribe(self, streams: StreamingAggregator) -> None:
        """Route every closed ``fleet.*`` window into :meth:`observe`."""
        streams.subscribe("fleet.*", self.observe)

    def _signals(self, cell: str) -> _CellSignals:
        sig = self._cells.get(cell)
        if sig is None:
            sig = self._cells[cell] = _CellSignals(EWMA_HALFLIFE_S)
        return sig

    def observe(self, summary: WindowSummary) -> None:
        """Fold one closed streaming window into the owning cell's EWMAs."""
        m = _CELL_LABEL.search(summary.series)
        if m is None:
            return
        sig = self._signals(m.group(1))
        if summary.series.startswith("fleet.arrivals{"):
            sig.arrival_rps.update(summary.rate, summary.end)
        elif summary.series.startswith("fleet.service_ms{"):
            sig.service_window_s.update(summary.mean / 1e3, summary.end)
        elif summary.series.startswith("fleet.queue_windows{"):
            sig.backlog_windows = summary.last

    # -- the policy ----------------------------------------------------------

    def demand_replicas(self, cell: str) -> float:
        """Replica-equivalents of current demand (steady state + backlog)."""
        sig = self._signals(cell)
        service = sig.service_window_s.mean
        if service <= 0 or sig.service_window_s.updates == 0:
            return 0.0
        steady = (sig.arrival_rps.mean * self.windows_per_request * service)
        drain = sig.backlog_windows * service / DRAIN_HORIZON_S
        return max(steady, 0.0) + max(drain, 0.0)

    def decide(self, cell: str, now: float,
               current_replicas: int) -> ScaleDecision:
        """Grow/shrink/hold verdict for ``cell`` at ``now``."""
        cfg = self.config
        sig = self._signals(cell)
        demand = self.demand_replicas(cell)
        target = max(cfg.min_replicas,
                     min(cfg.max_replicas,
                         math.ceil(demand / TARGET_UTILIZATION)
                         if demand > 0 else cfg.min_replicas))
        predicted = demand / max(current_replicas, 1)
        kind, delta, reason = "hold", 0, "within band"
        if target > current_replicas:
            if now - sig.last_grow_t >= GROW_COOLDOWN_S:
                delta = min(target - current_replicas, MAX_GROW_STEP)
                kind = "grow"
                reason = (f"demand {demand:.2f} replicas > "
                          f"{current_replicas} at target utilization "
                          f"{TARGET_UTILIZATION:.0%}")
                sig.last_grow_t = now
            else:
                reason = "grow wanted but cooling down"
        elif (target < current_replicas
              and current_replicas > cfg.min_replicas
              and predicted < SHRINK_UTILIZATION):
            if now - sig.last_shrink_t >= SHRINK_COOLDOWN_S:
                delta = -min(current_replicas - target,
                             MAX_SHRINK_STEP,
                             current_replicas - cfg.min_replicas)
                kind = "shrink"
                reason = (f"predicted utilization {predicted:.0%} < "
                          f"shrink floor {SHRINK_UTILIZATION:.0%}")
                sig.last_shrink_t = now
            else:
                reason = "shrink wanted but cooling down"
        decision = ScaleDecision(
            t=now, cell=cell, kind=kind, delta=delta,
            target=target, current=current_replicas, reason=reason,
            arrival_rps=sig.arrival_rps.mean,
            service_window_s=sig.service_window_s.mean,
            backlog_windows=sig.backlog_windows,
            predicted_utilization=predicted)
        if kind != "hold":
            self.decisions.append(decision)
        return decision
