"""A functional, in-process MPI with per-rank traffic accounting.

This is the wire the collective algorithms and the Horovod control planes
run over.  It is deliberately *functional* rather than threaded: collectives
are expressed as sequences of matched send/recv pairs executed in program
order, which keeps runs deterministic and lets tests assert exact message
and byte counts (the heart of the paper's control-plane argument in
Section V-A3).

The API mirrors mpi4py closely enough to be familiar: ``send``/``recv`` with
(source, tag) matching, plus convenience collectives.  Payloads are NumPy
arrays or picklable Python objects; arrays are copied on send so ranks
cannot alias each other's buffers (MPI semantics).  The copy lands in a
recycled buffer when one of the same shape and dtype is free: a receiver
that has consumed a message hands it back with :meth:`World.recycle`, so a
collective repeated every step stops allocating after its first run.

Fault model (:mod:`repro.resilience`): a ``World`` built with a
``fault_injector`` consults it on every send — injected *drops* surface at
the receiver as :class:`repro.errors.MessageDropped` (so protocols observe
loss as an exception instead of a silent deadlock and can re-send via
:meth:`World.recv_reliable`); injected *duplicates* model transport-level
retransmission and are deduplicated on receive, visible only in
``TrafficStats``.  :meth:`World.fail_rank` kills a rank: any further
traffic touching it raises :class:`repro.errors.RankFailure`, which the
elastic-recovery path catches to rebuild a smaller world.
"""
from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field

import numpy as np

from ..errors import (CollectiveMismatch, DeadlockError, MessageDropped,
                      RankError, RankFailure)
from ..telemetry import get_active

__all__ = ["World", "TrafficStats"]


@dataclass
class TrafficStats:
    """Per-rank accounting of point-to-point traffic."""

    sent_messages: defaultdict = field(default_factory=lambda: defaultdict(int))
    recv_messages: defaultdict = field(default_factory=lambda: defaultdict(int))
    sent_bytes: defaultdict = field(default_factory=lambda: defaultdict(int))
    dropped_messages: defaultdict = field(default_factory=lambda: defaultdict(int))
    duplicated_messages: defaultdict = field(default_factory=lambda: defaultdict(int))

    @property
    def total_messages(self) -> int:
        return sum(self.sent_messages.values())

    @property
    def total_bytes(self) -> int:
        return sum(self.sent_bytes.values())

    def max_messages_per_rank(self) -> int:
        counts = [self.sent_messages[r] + self.recv_messages[r]
                  for r in set(self.sent_messages) | set(self.recv_messages)]
        return max(counts, default=0)

    @property
    def total_dropped(self) -> int:
        return sum(self.dropped_messages.values())

    @property
    def total_duplicated(self) -> int:
        return sum(self.duplicated_messages.values())

    def reset(self) -> None:
        self.sent_messages.clear()
        self.recv_messages.clear()
        self.sent_bytes.clear()
        self.dropped_messages.clear()
        self.duplicated_messages.clear()


def _payload_bytes(payload) -> int:
    if isinstance(payload, np.ndarray):
        return payload.nbytes
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    # Small control message: count a nominal envelope.
    return 64


class _DropMarker:
    """Takes a dropped message's place so the receiver observes the loss."""

    __slots__ = ("src", "dst", "tag", "msg_id")

    def __init__(self, src: int, dst: int, tag: int, msg_id: int | None = None):
        self.src, self.dst, self.tag, self.msg_id = src, dst, tag, msg_id


class _DupMarker:
    """A transport-level retransmission; deduplicated on receive."""

    __slots__ = ()


_DUP = _DupMarker()


class _Traced:
    """Envelope pairing a payload with its wire-level trace context.

    Created only while a telemetry session is active, so untraced runs pay
    nothing per message.  The ``msg_id`` is the cross-rank causal link: the
    send event and the recv event both carry it, and the Chrome exporter
    turns each matched pair into a flow arrow between rank lanes.
    """

    __slots__ = ("payload", "msg_id")

    def __init__(self, payload, msg_id: int):
        self.payload = payload
        self.msg_id = msg_id


class World:
    """A simulated MPI communicator of ``size`` ranks.

    ``fault_injector`` (a :class:`repro.resilience.FaultInjector`, or any
    object with a ``message_action(src, dst, tag)`` method) is consulted on
    every send; ranks killed with :meth:`fail_rank` poison all their
    channels.

    ``collective_checks=True`` enables the opt-in debug assertion behind
    :meth:`announce_collective`: every rank entering a collective announces
    its (op, tag, shape, dtype) and any disagreement within a round — or a
    rank announcing twice before its peers caught up — raises
    :class:`~repro.errors.CollectiveMismatch` at the call site instead of
    deadlocking somewhere down the wire.  This is the runtime complement
    of the static RPR101 analysis (``repro lint --deep``).
    """

    def __init__(self, size: int, fault_injector=None, *,
                 collective_checks: bool = False):
        if size < 1:
            raise ValueError("world size must be >= 1")
        self.size = int(size)
        self._queues: dict[tuple[int, int, int], deque] = defaultdict(deque)
        self.stats = TrafficStats()
        self.fault_injector = fault_injector
        self._failed: set[int] = set()
        self._msg_seq = 0           # wire-level message ids (trace context)
        self.collective_checks = bool(collective_checks)
        self._pending_collective: dict[int, tuple] = {}
        self.collective_rounds = 0  # completed, fully-agreed rounds
        # (shape, dtype) -> message buffers handed back by receivers.
        self._free: dict[tuple, list[np.ndarray]] = defaultdict(list)
        self.buffers_allocated = 0  # array sends that found no free buffer

    # -- trace context -------------------------------------------------------

    def _trace_event(self, tracer, edge: str, src: int, dst: int, tag: int,
                     msg_id: int, nbytes: int) -> None:
        """One wire event: a zero-length span on the sender/receiver rank lane.

        ``category="comm.msg"`` events carry ``msg_edge`` + ``msg_id`` args;
        the Chrome exporter matches send/recv pairs into flow arrows and the
        critical-path analyzer (:mod:`repro.telemetry.distributed`) turns
        them into causal edges of the cross-rank span DAG.
        """
        now = tracer.clock.now()
        tracer.emit(
            f"{edge} {src}->{dst}", start_s=now, duration_s=0.0,
            category="comm.msg", lane=src if edge == "send" else dst,
            parent_id=tracer.current_span_id(), msg_edge=edge, msg_id=msg_id,
            src=src, dst=dst, tag=tag, bytes=nbytes)

    # -- failure state -------------------------------------------------------

    def fail_rank(self, rank: int) -> None:
        """Kill ``rank``: all further traffic touching it raises RankFailure."""
        self._check_rank(rank)
        self._failed.add(int(rank))

    @property
    def failed_ranks(self) -> frozenset[int]:
        return frozenset(self._failed)

    def alive_ranks(self) -> list[int]:
        return [r for r in range(self.size) if r not in self._failed]

    def drain(self) -> int:
        """Discard every pending message (step-retry cleanup); returns count."""
        n = sum(len(q) for q in self._queues.values())
        self._queues.clear()
        return n

    # -- message buffers -----------------------------------------------------

    def _snapshot(self, array: np.ndarray) -> np.ndarray:
        """The payload as sent: a copy, in a recycled buffer when one is free."""
        free = self._free.get((array.shape, array.dtype))
        if free:
            buf = free.pop()
            np.copyto(buf, array)
            return buf
        self.buffers_allocated += 1
        return array.copy()

    def recycle(self, payload) -> None:
        """Hand back a received array the caller has finished with.

        A later :meth:`send` of the same shape and dtype copies into it
        instead of allocating.  The caller must hold no other reference it
        still reads: the buffer's contents change on its next send.
        Messages nobody hands back are simply garbage-collected.
        """
        if (isinstance(payload, np.ndarray) and payload.flags.owndata
                and payload.flags.c_contiguous):
            self._free[(payload.shape, payload.dtype)].append(payload)

    # -- point to point ------------------------------------------------------

    def send(self, payload, src: int, dst: int, tag: int = 0) -> None:
        """Enqueue a message from ``src`` to ``dst``.

        Under an active telemetry session every send records a trace event
        (and the payload travels inside a :class:`_Traced` envelope) so the
        matching recv gains a causal edge; without a session the wire is
        exactly the old untraced fast path.
        """
        self._check_rank(src)
        self._check_rank(dst)
        self._check_alive(src)
        self._check_alive(dst)
        action = "deliver"
        if self.fault_injector is not None:
            action = self.fault_injector.message_action(src, dst, tag)
        if isinstance(payload, np.ndarray):
            payload = self._snapshot(payload)
        nbytes = _payload_bytes(payload)
        tracer = get_active().tracer
        msg_id = None
        if tracer.enabled:
            self._msg_seq += 1
            msg_id = self._msg_seq
            self._trace_event(tracer, "send", src, dst, tag, msg_id, nbytes)
            payload = _Traced(payload, msg_id)
        q = self._queues[(src, dst, tag)]
        if action == "drop":
            q.append(_DropMarker(src, dst, tag, msg_id))
            self.stats.dropped_messages[src] += 1
        else:
            q.append(payload)
            if action == "duplicate":
                q.append(_DUP)
                self.stats.duplicated_messages[src] += 1
        self.stats.sent_messages[src] += 1
        self.stats.sent_bytes[src] += nbytes

    def recv(self, dst: int, src: int, tag: int = 0):
        """Dequeue the next message from ``src`` to ``dst``.

        Raises :class:`~repro.errors.DeadlockError` (a ``LookupError``) if
        no matching message is pending — in a functional simulation that
        indicates a protocol bug — and
        :class:`~repro.errors.MessageDropped` when an injected drop
        consumed the message in flight.
        """
        self._check_rank(src)
        self._check_rank(dst)
        self._check_alive(src)
        self._check_alive(dst)
        q = self._queues[(src, dst, tag)]
        while q and isinstance(q[0], _DupMarker):
            q.popleft()                     # transport dedups retransmissions
        if not q:
            raise DeadlockError(
                f"deadlock: rank {dst} waiting on message from {src} tag {tag}"
            )
        head = q.popleft()
        if isinstance(head, _DropMarker):
            tel = get_active()
            if tel.enabled:
                tel.metrics.counter("comm.dropped_messages").inc()
                if head.msg_id is not None:
                    self._trace_event(tel.tracer, "drop", src, dst, tag,
                                      head.msg_id, 0)
            raise MessageDropped(src, dst, tag)
        self.stats.recv_messages[dst] += 1
        if isinstance(head, _Traced):
            tracer = get_active().tracer
            if tracer.enabled:
                self._trace_event(tracer, "recv", src, dst, tag, head.msg_id,
                                  _payload_bytes(head.payload))
            return head.payload
        return head

    def recv_reliable(self, dst: int, src: int, tag: int = 0, *,
                      resend=None, max_resends: int = 3):
        """``recv`` that survives injected drops by re-sending.

        ``resend`` is a zero-argument callable returning the payload to
        retransmit (the protocol layer knows what it sent); each
        :class:`~repro.errors.MessageDropped` triggers one retransmission,
        up to ``max_resends``.
        """
        attempts = 0
        while True:
            try:
                return self.recv(dst, src, tag)
            except MessageDropped:
                if resend is None or attempts >= max_resends:
                    raise
                attempts += 1
                self.send(resend(), src, dst, tag)

    def pending(self, dst: int, src: int, tag: int = 0) -> int:
        q = self._queues[(src, dst, tag)]
        return sum(1 for m in q if not isinstance(m, (_DropMarker, _DupMarker)))

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.size:
            raise RankError(f"rank {rank} out of range [0, {self.size})")

    def _check_alive(self, rank: int) -> None:
        if rank in self._failed:
            raise RankFailure(rank)

    # -- collective agreement checks -----------------------------------------

    @staticmethod
    def _collective_sig(op, tag, shape, dtype) -> tuple:
        return (str(op), int(tag),
                tuple(shape) if shape is not None else None,
                str(dtype) if dtype is not None else None)

    def announce_collective(self, rank: int, op: str, tag: int,
                            shape=None, dtype=None) -> None:
        """Debug assertion: ``rank`` declares the collective it is entering.

        No-op unless the world was built with ``collective_checks=True``.
        Within one *round* (one announcement per alive rank) every
        announcement must agree on ``(op, tag, shape, dtype)``; a
        disagreeing rank — or a rank announcing a second collective while
        peers are still in the current round, i.e. a divergent schedule —
        raises :class:`~repro.errors.CollectiveMismatch` immediately.
        """
        if not self.collective_checks:
            return
        self._check_rank(rank)
        self._check_alive(rank)
        sig = self._collective_sig(op, tag, shape, dtype)
        pending = self._pending_collective
        if rank in pending:
            raise CollectiveMismatch(
                f"rank {rank} announced collective {sig[0]!r} (tag {sig[1]})"
                f" while peers {sorted(set(self.alive_ranks()) - set(pending))}"
                f" have not entered its previous collective"
                f" {pending[rank][0]!r} (tag {pending[rank][1]}) — "
                f"divergent collective schedule")
        if pending:
            ref_rank = next(iter(pending))
            ref = pending[ref_rank]
            if ref != sig:
                raise CollectiveMismatch(
                    f"collective disagreement: rank {rank} announced "
                    f"op={sig[0]!r} tag={sig[1]} shape={sig[2]} "
                    f"dtype={sig[3]}, but rank {ref_rank} announced "
                    f"op={ref[0]!r} tag={ref[1]} shape={ref[2]} "
                    f"dtype={ref[3]}")
        pending[rank] = sig
        if set(self.alive_ranks()) <= set(pending):
            pending.clear()
            self.collective_rounds += 1

    # -- simple collectives (reference implementations) -----------------------

    def exchange(self, payloads: list, pairs: list[tuple[int, int]], tag: int = 0) -> list:
        """Send payloads[src] along each (src, dst) pair; return recv list
        aligned with ``pairs``.  Helper for algorithm implementations."""
        for (src, dst), payload in zip(pairs, payloads):
            self.send(payload, src, dst, tag)
        return [self.recv(dst, src, tag) for (src, dst) in pairs]

    def _announce_all(self, op: str, tag: int, payload) -> None:
        """Driver-level collectives enter on every alive rank at once."""
        if not self.collective_checks:
            return
        shape = payload.shape if isinstance(payload, np.ndarray) else None
        dtype = payload.dtype if isinstance(payload, np.ndarray) else None
        for r in self.alive_ranks():
            self.announce_collective(r, op, tag, shape, dtype)

    def gather(self, values: list, root: int = 0, tag: int = 1000) -> list:
        """Reference gather: every rank sends its value to root."""
        if len(values) != self.size:
            raise ValueError("need one value per rank")
        self._announce_all("gather", tag, values[root])
        for r in range(self.size):
            if r != root:
                self.send(values[r], r, root, tag)
        out = []
        for r in range(self.size):
            out.append(values[r] if r == root else self.recv(root, r, tag))
        return out

    def broadcast(self, value, root: int = 0, tag: int = 1001) -> list:
        """Reference broadcast: root sends to every other rank."""
        self._announce_all("broadcast", tag, value)
        for r in range(self.size):
            if r != root:
                self.send(value, root, r, tag)
        return [value if r == root else self.recv(r, root, tag) for r in range(self.size)]
