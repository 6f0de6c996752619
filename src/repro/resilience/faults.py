"""Seeded fault plans and the runtime injector the layers consult.

At 27360 GPUs a multi-hour run *will* see node deaths, slow readers, and
lost control messages; the paper survives them with staging and
checkpoint/restart.  This module makes those failures first-class and
reproducible: a :class:`FaultPlan` is a declarative, seeded schedule of
faults, and a :class:`FaultInjector` is the runtime object the comm wire
(:class:`repro.comm.simmpi.World`), the read paths (:mod:`repro.io`), and
the event engine (:class:`repro.hpc.events.EventQueue`) consult at each
hook point.  Identical plan + seed ⇒ identical fault sequence, so every
recovery path is deterministic and testable.

Fault kinds
-----------
``rank_fail``
    Kill ``rank`` at the start of global step ``step``; subsequent traffic
    touching it raises :class:`repro.errors.RankFailure`.
``read_fault``
    The next ``count`` reads at/after step ``step`` (optionally matching
    ``path``) raise :class:`repro.errors.ReadFault`.
``slow_read``
    Like ``read_fault`` but the read survives, slowed by ``factor``.
``drop_msg`` / ``dup_msg``
    At/after step ``step``, sends are dropped / duplicated until ``count``
    have been affected; with ``prob`` set, each send is affected with that
    probability (seeded), otherwise the first ``count`` sends are.
``straggler``
    Rank ``rank`` runs ``factor``× slower from step ``step`` on (consulted
    through :meth:`FaultInjector.delay_factor` / event-queue perturbation).

Plans parse from compact strings (the ``repro faults`` CLI syntax)::

    rank_fail@3:rank=1;read_fault@1;drop_msg@2:count=2,prob=0.5
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ReadFault
from ..telemetry import get_active

__all__ = ["FAULT_KINDS", "FaultSpec", "FaultPlan", "FaultInjector"]

FAULT_KINDS = ("rank_fail", "read_fault", "slow_read", "drop_msg",
               "dup_msg", "straggler")


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault."""

    kind: str
    step: int = 0                # global step at which the fault arms
    rank: int | None = None      # target rank (rank_fail, straggler)
    path: str | None = None      # substring filter for read faults
    count: int = 1               # events affected (read/drop/dup faults)
    factor: float = 4.0          # slowdown multiple (slow_read, straggler)
    prob: float | None = None    # per-event probability (drop/dup), seeded

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"expected one of {FAULT_KINDS}")
        if self.step < 0:
            raise ValueError("fault step must be >= 0")
        if self.kind == "rank_fail" and self.rank is None:
            raise ValueError("rank_fail needs rank=<r>")
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.factor <= 0:
            raise ValueError("factor must be positive")
        if self.prob is not None and not 0.0 < self.prob <= 1.0:
            raise ValueError("prob must be in (0, 1]")


class FaultPlan:
    """An immutable, seeded schedule of :class:`FaultSpec` entries."""

    def __init__(self, specs=(), seed: int = 0):
        self.specs: tuple[FaultSpec, ...] = tuple(specs)
        self.seed = int(seed)

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self):
        return iter(self.specs)

    def of_kind(self, kind: str) -> tuple[FaultSpec, ...]:
        return tuple(s for s in self.specs if s.kind == kind)

    @classmethod
    def parse(cls, text: str, seed: int = 0) -> "FaultPlan":
        """Parse ``kind@step[:key=val,...]`` entries separated by ``;``."""
        specs = []
        for raw in text.split(";"):
            raw = raw.strip()
            if not raw:
                continue
            head, _, opts = raw.partition(":")
            kind, _, step = head.partition("@")
            kwargs: dict = {"kind": kind.strip(),
                            "step": int(step) if step else 0}
            for pair in filter(None, (p.strip() for p in opts.split(","))):
                key, _, value = pair.partition("=")
                if not _:
                    raise ValueError(f"malformed fault option {pair!r}")
                key = key.strip()
                if key in ("rank", "count", "step"):
                    kwargs[key] = int(value)
                elif key in ("factor", "prob"):
                    kwargs[key] = float(value)
                elif key == "path":
                    kwargs[key] = value
                else:
                    raise ValueError(f"unknown fault option {key!r}")
            specs.append(FaultSpec(**kwargs))
        return cls(specs, seed=seed)

    def describe(self) -> str:
        parts = []
        for s in self.specs:
            opts = []
            if s.rank is not None:
                opts.append(f"rank={s.rank}")
            if s.path is not None:
                opts.append(f"path={s.path}")
            if s.count != 1:
                opts.append(f"count={s.count}")
            if s.prob is not None:
                opts.append(f"prob={s.prob}")
            suffix = (":" + ",".join(opts)) if opts else ""
            parts.append(f"{s.kind}@{s.step}{suffix}")
        return ";".join(parts)


@dataclass
class _ArmedCounter:
    """A drop/dup/read fault that is live and still has budget."""

    spec: FaultSpec
    remaining: int = field(default=0)

    def __post_init__(self):
        self.remaining = self.spec.count


class FaultInjector:
    """Runtime fault state: armed counters, seeded rng, telemetry counters.

    One injector is shared by every hooked layer of a run.  The training
    loop advances it with :meth:`begin_step`; the comm wire calls
    :meth:`message_action` per send; read paths call :meth:`check_read`
    per read; the event engine calls :meth:`perturb_delay` per scheduled
    event.  All decisions derive from the plan plus one
    ``np.random.default_rng(plan.seed)`` stream, so a fixed seed replays
    the exact fault sequence.
    """

    def __init__(self, plan: FaultPlan | None = None):
        self.plan = plan or FaultPlan()
        self.rng = np.random.default_rng(self.plan.seed)
        self.step = -1
        self.counts: dict[str, int] = {k: 0 for k in FAULT_KINDS}
        self._armed_msgs: list[_ArmedCounter] = []   # drop_msg / dup_msg
        self._armed_reads: list[_ArmedCounter] = []  # read_fault / slow_read
        self._stragglers: list[FaultSpec] = []
        self._failed_ranks: set[int] = set()

    # -- bookkeeping -------------------------------------------------------

    def _note(self, kind: str, **args) -> None:
        self.counts[kind] += 1
        tel = get_active()
        if tel.enabled:
            tel.metrics.counter(f"resilience.injected.{kind}").inc()
            tel.tracer.instant("fault_injected", category="resilience",
                               kind=kind, step=self.step, **args)

    # -- step driving ------------------------------------------------------

    def begin_step(self, step: int) -> list[int]:
        """Advance to ``step``; returns ranks whose failure is now due."""
        self.step = int(step)
        due = []
        for s in self.plan.specs:
            if s.step != step:
                continue
            if s.kind == "rank_fail":
                if s.rank not in self._failed_ranks:
                    self._failed_ranks.add(s.rank)
                    due.append(s.rank)
                    self._note("rank_fail", rank=s.rank)
            elif s.kind in ("drop_msg", "dup_msg"):
                self._armed_msgs.append(_ArmedCounter(s))
            elif s.kind in ("read_fault", "slow_read"):
                self._armed_reads.append(_ArmedCounter(s))
            elif s.kind == "straggler":
                self._stragglers.append(s)
        return due

    # -- comm hook ---------------------------------------------------------

    def message_action(self, src: int, dst: int, tag: int) -> str:
        """Fate of one send: ``"deliver"``, ``"drop"``, or ``"duplicate"``."""
        for armed in self._armed_msgs:
            if armed.remaining <= 0:
                continue
            if armed.spec.prob is not None and \
                    self.rng.random() >= armed.spec.prob:
                continue
            armed.remaining -= 1
            kind = armed.spec.kind
            self._note(kind, src=src, dst=dst, tag=tag)
            return "drop" if kind == "drop_msg" else "duplicate"
        return "deliver"

    # -- read hook ---------------------------------------------------------

    def check_read(self, path) -> float:
        """Consult armed read faults for one read of ``path``.

        Raises :class:`~repro.errors.ReadFault` for a ``read_fault``;
        returns the slowdown factor (1.0 when unaffected) for
        ``slow_read``.  Each armed fault fires ``count`` times then
        exhausts, so a retried read eventually succeeds.
        """
        name = str(path)
        for armed in self._armed_reads:
            if armed.remaining <= 0:
                continue
            if armed.spec.path is not None and armed.spec.path not in name:
                continue
            armed.remaining -= 1
            if armed.spec.kind == "read_fault":
                self._note("read_fault", path=name)
                raise ReadFault(f"injected read failure for {name}",
                                path=path)
            self._note("slow_read", path=name)
            return armed.spec.factor
        return 1.0

    # -- time hook ---------------------------------------------------------

    def delay_factor(self, rank: int | None = None) -> float:
        """Slowdown multiple for work on ``rank`` at the current step."""
        factor = 1.0
        for s in self._stragglers:
            if s.rank is None or rank is None or s.rank == rank:
                factor *= s.factor
        return factor

    def perturb_delay(self, delay: float, rank: int | None = None) -> float:
        """Event-queue hook: stretch a scheduled delay for stragglers."""
        factor = self.delay_factor(rank)
        if factor != 1.0:
            self._note("straggler", rank=rank, factor=factor)
        return delay * factor

    # -- failed-rank registry ---------------------------------------------

    @property
    def failed_ranks(self) -> frozenset[int]:
        return frozenset(self._failed_ranks)
