"""Declarative health rules over streaming windows: fire, resolve, report.

The last layer of the observability control plane: rules declared as data,
evaluated over the closed windows of a
:class:`~repro.telemetry.streaming.StreamingAggregator`, with a proper
firing/resolved lifecycle (consecutive-window streaks, not single-sample
flapping).  Rule kinds:

``threshold``
    A window statistic compared against a fixed bound
    (``serve.queue_depth mean > 100``).
``rate_of_change``
    The per-second derivative of a window statistic between consecutive
    windows (``dist.world_size`` falling means the world shrank).
``ewma_anomaly``
    The window mean vs. the series' EWMA baseline, in EW standard
    deviations — the "step time suddenly looks different" detector.
``slo_burn``
    Error-budget burn: the fraction of recent windows whose statistic
    breaches the SLO target, compared to the budget
    (``serve.latency_s median > 0.2 in > 50% of the last 10 windows``).
``imbalance``
    Cross-series skew within one window over a labeled family
    (``trainer.rank_step_s{rank=*}``): max/median ratio above a bound
    names the straggler rank — the paper's §VI attribution as an alert.
    The family needs a clock per rank, such as the ``repro health``
    drill's virtual rank times; the in-process ``DistributedTrainer`` runs
    its ranks as one stacked forward/backward on one clock and feeds no
    ``trainer.rank_step_s``.

Alerts are mirrored into telemetry (``health_fired`` / ``health_resolved``
instants, ``health.alerts_fired`` counters) so a Chrome trace of a faulty
run shows each rule firing alongside the fault that caused it.
"""
from __future__ import annotations

import fnmatch
import math
import re
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .streaming import StreamingAggregator, WindowSummary

__all__ = ["HealthRule", "Alert", "HealthEngine", "default_health_rules",
           "fleet_health_rules", "SEVERITIES"]

SEVERITIES = ("info", "warning", "critical")

_OPS = {
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
}

_STAT_FIELDS = {"mean": "mean", "rate": "rate", "total": "total",
                "min": "minimum", "max": "maximum", "last": "last",
                "median": "median", "p16": "p16", "p84": "p84",
                "count": "count"}

_RANK_LABEL = re.compile(r"rank=(\d+)")


@dataclass(frozen=True)
class HealthRule:
    """One declarative health check over a series (or series family)."""

    name: str
    series: str                     # fnmatch glob over full series keys
    kind: str = "threshold"         # threshold | rate_of_change |
                                    # ewma_anomaly | slo_burn | imbalance
    severity: str = "warning"
    stat: str = "mean"              # WindowSummary statistic to evaluate
    op: str = ">"
    value: float = 0.0              # bound (threshold / derivative / ratio)
    sigma: float = 3.0              # ewma_anomaly: |z| that breaches
    warmup: int = 3                 # ewma_anomaly: EWMA updates before arming
    slo_target: float = 0.0         # slo_burn: per-window SLO bound on stat
    budget_fraction: float = 0.5    # slo_burn: breach fraction that fires
    budget_windows: int = 10        # slo_burn: lookback length
    for_windows: int = 1            # consecutive breaches before firing
    resolve_windows: int = 1        # consecutive OKs before resolving
    description: str = ""

    def __post_init__(self):
        if self.kind not in ("threshold", "rate_of_change", "ewma_anomaly",
                             "slo_burn", "imbalance"):
            raise ValueError(f"unknown rule kind {self.kind!r}")
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")
        if self.op not in _OPS:
            raise ValueError(f"unknown op {self.op!r}")
        if self.stat not in _STAT_FIELDS:
            raise ValueError(f"unknown stat {self.stat!r}")


@dataclass
class Alert:
    """One rule firing (and, eventually, resolving) on one series."""

    rule: str
    series: str
    severity: str
    state: str                      # "firing" | "resolved"
    fired_at: float
    resolved_at: float | None = None
    value: float = 0.0              # most recent breaching value
    message: str = ""
    context: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "rule": self.rule, "series": self.series,
            "severity": self.severity, "state": self.state,
            "fired_at": self.fired_at, "resolved_at": self.resolved_at,
            "value": self.value, "message": self.message,
            "context": dict(self.context),
        }


class _RuleState:
    """Streak machine for one (rule, series) pair."""

    __slots__ = ("breaches", "oks", "alert", "prev", "burn")

    def __init__(self, rule: HealthRule):
        self.breaches = 0
        self.oks = 0
        self.alert: Alert | None = None
        self.prev: WindowSummary | None = None
        self.burn: deque = deque(maxlen=max(rule.budget_windows, 1))


def _stat(summary: WindowSummary, stat: str) -> float:
    return float(getattr(summary, _STAT_FIELDS[stat]))


class HealthEngine:
    """Evaluates :class:`HealthRule` sets against closed streaming windows.

    The engine subscribes to every series of ``streams`` when it is built
    and sees only the windows that close after that.  Each :meth:`evaluate`
    call consumes the windows closed since the last call, advances the
    per-(rule, series) streak machines and keeps none of them.
    Deterministic under a simulated clock — same observations, same
    windows, same alert lifecycle.

    Alerts are mirrored into ``telemetry``, or into the active session
    when it is ``None``.  An engine made by ``Telemetry.attach_health``
    holds a weak proxy of its session and must not outlive it.
    """

    def __init__(self, rules, streams: StreamingAggregator, telemetry=None):
        self.rules = list(rules)
        self.streams = streams
        self.telemetry = telemetry
        self.alerts: list[Alert] = []
        self._pending: list[WindowSummary] = []
        streams.subscribe("*", self._pending.append)
        self._state: dict[tuple[str, str], _RuleState] = {}

    # -- lifecycle helpers ---------------------------------------------------

    def _get_state(self, rule: HealthRule, series: str) -> _RuleState:
        key = (rule.name, series)
        state = self._state.get(key)
        if state is None:
            state = self._state[key] = _RuleState(rule)
        return state

    def _tel(self):
        if self.telemetry is not None:
            return self.telemetry
        from .session import get_active

        return get_active()

    def _transition(self, rule: HealthRule, series: str, state: _RuleState,
                    breach: bool, value: float, at: float,
                    message: str, context: dict) -> None:
        if breach:
            state.breaches += 1
            state.oks = 0
        else:
            state.oks += 1
            state.breaches = 0
        if breach and state.alert is None and state.breaches >= rule.for_windows:
            state.alert = Alert(
                rule=rule.name, series=series, severity=rule.severity,
                state="firing", fired_at=at, value=value, message=message,
                context=context)
            self.alerts.append(state.alert)
            tel = self._tel()
            if tel.enabled:
                tel.tracer.instant("health_fired", category="health",
                                   rule=rule.name, series=series,
                                   severity=rule.severity, value=value)
                tel.metrics.counter("health.alerts_fired",
                                    rule=rule.name).inc()
        elif state.alert is not None:
            if breach:
                state.alert.value = value
                state.alert.context.update(context)
            elif state.oks >= rule.resolve_windows:
                state.alert.state = "resolved"
                state.alert.resolved_at = at
                tel = self._tel()
                if tel.enabled:
                    tel.tracer.instant("health_resolved", category="health",
                                       rule=rule.name, series=series)
                    tel.metrics.counter("health.alerts_resolved",
                                        rule=rule.name).inc()
                state.alert = None

    # -- per-kind evaluation -------------------------------------------------

    def _eval_single(self, rule: HealthRule, summary: WindowSummary) -> None:
        series = summary.series
        state = self._get_state(rule, series)
        value = _stat(summary, rule.stat)
        breach = False
        message = ""
        context: dict = {}
        if rule.kind == "threshold":
            breach = _OPS[rule.op](value, rule.value)
            message = (f"{series} {rule.stat}={value:.4g} "
                       f"{rule.op} {rule.value:.4g}")
        elif rule.kind == "rate_of_change":
            if state.prev is not None:
                dt = summary.end - state.prev.end
                if dt > 0:
                    rate = (value - _stat(state.prev, rule.stat)) / dt
                    breach = _OPS[rule.op](rate, rule.value)
                    value = rate
                    message = (f"{series} d({rule.stat})/dt={rate:.4g} "
                               f"{rule.op} {rule.value:.4g}")
            state.prev = summary
        elif rule.kind == "ewma_anomaly":
            ewma = self.streams.ewma(series)
            if ewma is not None and ewma.updates > rule.warmup:
                z = ewma.zscore(summary.mean)
                if not math.isfinite(z):
                    # Zero-variance baseline (noise-free sim series): any
                    # jump is infinitely anomalous — clamp to stay JSON-safe.
                    z = math.copysign(99.0, z)
                breach = abs(z) >= rule.sigma
                value = z
                message = (f"{series} mean={summary.mean:.4g} is "
                           f"{z:+.2f}σ from EWMA {ewma.mean:.4g}")
        elif rule.kind == "slo_burn":
            state.burn.append(_OPS[rule.op](value, rule.slo_target))
            burn = sum(state.burn) / len(state.burn)
            breach = (len(state.burn) >= min(rule.budget_windows, 2)
                      and burn > rule.budget_fraction)
            value = burn
            message = (f"{series} burned {burn:.0%} of budget "
                       f"({rule.stat} {rule.op} {rule.slo_target:.4g} "
                       f"in {len(state.burn)} windows)")
            context = {"burn": burn}
        self._transition(rule, series, state, breach, value, summary.end,
                         message, context)

    def _eval_imbalance(self, rule: HealthRule,
                        batch: list[WindowSummary]) -> None:
        # Group the family's windows by window start: skew is *within* one
        # window across labeled series (ranks), not over time.
        by_window: dict[float, list[WindowSummary]] = {}
        for s in batch:
            if fnmatch.fnmatchcase(s.series, rule.series):
                by_window.setdefault(s.start, []).append(s)
        state = self._get_state(rule, rule.series)
        for start in sorted(by_window):
            group = by_window[start]
            if len(group) < 2:
                continue
            values = np.asarray([_stat(s, rule.stat) for s in group])
            med = float(np.median(values))
            worst = int(values.argmax())
            ratio = float(values[worst] / med) if med > 0 else float("inf")
            breach = ratio >= rule.value
            straggler_series = group[worst].series
            m = _RANK_LABEL.search(straggler_series)
            context = {"straggler_series": straggler_series,
                       "ratio": ratio}
            if m:
                context["straggler_rank"] = int(m.group(1))
            message = (f"{straggler_series} {rule.stat}="
                       f"{values[worst]:.4g} is {ratio:.2f}x the "
                       f"family median {med:.4g}")
            self._transition(rule, rule.series, state, breach, ratio,
                             group[0].end, message, context)

    # -- public API ----------------------------------------------------------

    def evaluate(self, t: float | None = None) -> list[Alert]:
        """Consume windows closed since the last call; returns new alerts.

        When ``t`` is given the aggregator is advanced to ``t`` first
        (closing due windows); the returned list holds alerts that *fired*
        during this evaluation.
        """
        if t is not None:
            self.streams.advance(t)
        before = len(self.alerts)
        # Clear in place: the subscription holds this list's ``append``.
        batch = self._pending[:]
        self._pending.clear()
        if not batch:
            return []
        for rule in self.rules:
            if rule.kind == "imbalance":
                self._eval_imbalance(rule, batch)
            else:
                for summary in batch:
                    if fnmatch.fnmatchcase(summary.series, rule.series):
                        self._eval_single(rule, summary)
        return self.alerts[before:]

    def firing(self) -> list[Alert]:
        return [a for a in self.alerts if a.state == "firing"]

    def resolved(self) -> list[Alert]:
        return [a for a in self.alerts if a.state == "resolved"]

    def report(self) -> dict:
        """JSON-serializable engine state (rules, alerts, series heads)."""
        return {
            "rules": [{"name": r.name, "series": r.series, "kind": r.kind,
                       "severity": r.severity,
                       "description": r.description}
                      for r in self.rules],
            "alerts": [a.as_dict() for a in self.alerts],
            "firing": [a.as_dict() for a in self.firing()],
            "series": {
                name: latest.as_dict()
                for name in self.streams.series_names()
                if (latest := self.streams.latest(name)) is not None
            },
        }

    def render(self, title: str = "Health") -> str:
        """Plain-text dashboard: rule status lines, then the alert log."""
        lines = [title, "=" * len(title), ""]
        firing_by_rule = {a.rule for a in self.firing()}
        ever_fired = {a.rule for a in self.alerts}
        lines.append("rules:")
        for r in self.rules:
            if r.name in firing_by_rule:
                status = "FIRING"
            elif r.name in ever_fired:
                status = "resolved"
            else:
                status = "ok"
            lines.append(f"  [{status:^8s}] {r.name:<28s} "
                         f"{r.kind:<14s} {r.severity:<8s} {r.series}")
        lines.append("")
        if self.alerts:
            lines.append("alerts:")
            for a in self.alerts:
                when = (f"t={a.fired_at:.3f}" if a.resolved_at is None
                        else f"t={a.fired_at:.3f}..{a.resolved_at:.3f}")
                lines.append(f"  {a.severity:<8s} {a.rule:<28s} "
                             f"[{a.state}] {when}  {a.message}")
        else:
            lines.append("alerts: none")
        return "\n".join(lines).rstrip() + "\n"


#: SLOs of the stock rules: median training step time and serve latency.
STEP_TIME_SLO_S = 2.0
LATENCY_SLO_S = 0.5


def default_health_rules() -> list[HealthRule]:
    """The stock rule set covering trainer, comm, resilience, and serve."""
    return [
        HealthRule(
            name="step_time_anomaly", series="trainer.step_time_s",
            kind="ewma_anomaly", sigma=3.0, warmup=3, severity="warning",
            description="step time departs its EWMA baseline by >= 3 sigma"),
        HealthRule(
            name="rank_imbalance", series="trainer.rank_step_s{rank=*}",
            kind="imbalance", stat="mean", value=2.0, severity="warning",
            for_windows=2, resolve_windows=2,
            description="one rank's step share runs >= 2x the family "
                        "median (names the straggler)"),
        HealthRule(
            name="step_time_slo_burn", series="trainer.step_time_s",
            kind="slo_burn", stat="median", op=">",
            slo_target=STEP_TIME_SLO_S, budget_fraction=0.5,
            budget_windows=10, severity="critical",
            description="median step time breaches its SLO in more than "
                        "half the recent windows"),
        HealthRule(
            name="comm_message_drops", series="comm.dropped_messages",
            kind="threshold", stat="total", op=">", value=0.0,
            severity="warning",
            description="injected (or real) message drops observed on "
                        "the wire this window"),
        HealthRule(
            name="step_retries", series="resilience.step_retries",
            kind="threshold", stat="total", op=">", value=0.0,
            severity="warning",
            description="a training step had to be drained and retried"),
        HealthRule(
            name="world_shrunk", series="dist.world_size",
            kind="rate_of_change", stat="last", op="<", value=0.0,
            severity="critical",
            description="the data-parallel world lost ranks (elastic "
                        "degradation engaged)"),
        HealthRule(
            name="serve_latency_slo_burn", series="serve.latency_s*",
            kind="slo_burn", stat="median", op=">",
            slo_target=LATENCY_SLO_S, budget_fraction=0.5,
            budget_windows=10, severity="critical",
            description="serve latency burns its SLO budget"),
        HealthRule(
            name="serve_shedding", series="serve.shed*",
            kind="threshold", stat="total", op=">", value=0.0,
            severity="warning",
            description="admission control is shedding serve requests"),
    ]


#: Queued tile windows per cell above which the backlog rule warns.
BACKLOG_WINDOWS_WARN = 200.0


def fleet_health_rules() -> list[HealthRule]:
    """Rules covering the autoscaled serve fleet (``repro.serve.fleet``).

    The fleet publishes per-cell gauges every control tick, so the
    gauge-backed rules here both fire *and* resolve deterministically:
    ``fleet_cell_shrunk`` (rate-of-change on the replica count) breaches
    exactly on the tick a kill or scale-in lands and is OK again one
    tick later, and ``fleet_queue_backlog`` clears as soon as a burst
    drains.  Counter-backed rules (shedding, spillover) fire on the
    window where the event happened.
    """
    return [
        HealthRule(
            name="fleet_queue_backlog",
            series="fleet.queue_windows{cell=*}",
            kind="threshold", stat="last", op=">",
            value=BACKLOG_WINDOWS_WARN, severity="warning",
            for_windows=2, resolve_windows=2,
            description="a cell's queued tile-window backlog is deep "
                        "enough to blow the drain horizon"),
        HealthRule(
            name="fleet_shedding", series="fleet.shed*",
            kind="threshold", stat="total", op=">", value=0.0,
            severity="warning",
            description="a cell is refusing requests (queue_full or SLO "
                        "shed) — every cell is out of budget"),
        HealthRule(
            name="fleet_spillover", series="fleet.spillover*",
            kind="threshold", stat="total", op=">", value=0.0,
            severity="info",
            description="a cell is routing overload to remote cells "
                        "(degraded locality, not refusals)"),
        HealthRule(
            name="fleet_cell_shrunk", series="fleet.replicas{cell=*}",
            kind="rate_of_change", stat="last", op="<", value=0.0,
            severity="critical",
            description="a cell lost replicas (injected kill or "
                        "autoscaler scale-in)"),
        HealthRule(
            name="fleet_hit_rate_anomaly",
            series="fleet.cache.hit_rate{cell=*}",
            kind="ewma_anomaly", sigma=4.0, warmup=5, severity="info",
            resolve_windows=2,
            description="a cell's warm-tile hit rate departs its EWMA "
                        "baseline (cold caches after a scale event)"),
    ]
