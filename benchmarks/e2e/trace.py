"""In-memory span tracer for the end-to-end benchmark.

The benchmark measures layers from outside: it never edits ``src/``.  A
:class:`Tracer` records spans two ways:

* ``with tracer.span("io.stage"):`` around calls the benchmark itself
  makes into a layer;
* :meth:`Tracer.wrap` replaces a public callable at the attribute its
  caller resolves (the class attribute for a method, the importing
  module's global for a function) for calls made deep inside the program.

Every span is ``{id, name, layer, start, end, parent, op_id, tid}``; the
layer is the part of the name before the first dot.  Self time is computed
as spans close: a span's duration minus the part its child spans cover, so
the self times of one thread's spans add up to the wall time of its root.
Spans stay in memory until :func:`write_chrome_trace`; callables that run
too often to span are wrapped in ``count`` mode (a call counter, no clock).

State is per thread (the ``PrefetchPipeline`` readers emit spans too) and
merged by :meth:`Tracer.totals`.
"""
from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

__all__ = ["Tracer", "Totals", "write_chrome_trace"]

#: Spans kept for the Chrome trace; past this only the sums keep growing.
MAX_SPANS = 100_000


@dataclass
class Totals:
    """Merged accounting of every thread since the last ``reset``."""

    self_s: dict = field(default_factory=lambda: defaultdict(float))
    incl_s: dict = field(default_factory=lambda: defaultdict(float))
    calls: dict = field(default_factory=lambda: defaultdict(int))
    spans: list = field(default_factory=list)
    #: Self time summed over the thread that called ``totals()`` only.
    main_self_s: float = 0.0


class _ThreadState:
    __slots__ = ("tid", "stack", "open", "self_s", "incl_s", "calls",
                 "spans")

    def __init__(self, tid: int):
        self.tid = tid
        # frames: [name, start, child_s, op_id, span_id, state, record]
        self.stack: list = []
        self.open: set = set()   # names of `outermost` wrappers in flight
        self.clear()

    def clear(self) -> None:
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.spans = []


class _Span:
    """Context manager for one explicit span (see :meth:`Tracer.span`)."""

    __slots__ = ("tracer", "name", "op_id", "frame")

    def __init__(self, tracer, name, op_id):
        self.tracer, self.name, self.op_id = tracer, name, op_id

    def __enter__(self):
        self.frame = self.tracer._enter(self.name, self.op_id)
        return self

    def __exit__(self, *exc):
        self.tracer._exit(self.frame)
        return False


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL = _NullSpan()


class Tracer:
    """Span recorder plus the registry of attributes it has replaced."""

    def __init__(self):
        self.enabled = False
        #: Default op id for root spans; the benchmark loop sets it per
        #: step / round so spans of one operation share an identifier.
        self.op_id = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._patched: list[tuple[object, str, object]] = []
        self._ids = itertools.count(1)

    # -- recording -----------------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            with self._lock:
                st = _ThreadState(len(self._states))
                self._states.append(st)
            self._local.state = st
        return st

    def _enter(self, name: str, op_id=None, record: bool = True):
        st = self._state()
        if op_id is None:
            op_id = st.stack[-1][3] if st.stack else self.op_id
        frame = [name, 0.0, 0.0, op_id, next(self._ids), st, record]
        st.stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _exit(self, frame) -> None:
        end = time.perf_counter()
        name, start, child_s, op_id, span_id, st, record = frame
        st.stack.pop()
        dur = end - start
        st.self_s[name] += dur - child_s
        st.incl_s[name] += dur
        st.calls[name] += 1
        parent = 0
        if st.stack:
            st.stack[-1][2] += dur
            parent = st.stack[-1][4]
        if record and len(st.spans) < MAX_SPANS:
            st.spans.append((span_id, name, start, end, parent, op_id, st.tid))

    def span(self, name: str, op_id=None):
        """``with`` block recording one span; a no-op while disabled."""
        if not self.enabled:
            return _NULL
        return _Span(self, name, op_id)

    def count(self, name: str, n: int = 1) -> None:
        if self.enabled:
            self._state().calls[name] += n

    def reset(self) -> None:
        """Drop everything recorded so far (wrappers stay installed)."""
        with self._lock:
            for st in self._states:
                st.clear()

    def totals(self) -> Totals:
        out = Totals()
        mine = self._state()
        with self._lock:
            states = list(self._states)
        for st in states:
            for k, v in st.self_s.items():
                out.self_s[k] += v
            for k, v in st.incl_s.items():
                out.incl_s[k] += v
            for k, v in st.calls.items():
                out.calls[k] += v
            out.spans.extend(st.spans)
        out.main_self_s = sum(mine.self_s.values())
        out.spans.sort(key=lambda s: s[2])
        return out

    # -- wrapping ------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, mode: str = "span",
             outermost: bool = False, op_from=None) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        ``mode`` is ``"span"`` (timed and kept for the trace), ``"time"``
        (timed, not kept: for callables that run 10^4-10^5 times) or
        ``"count"`` (a call counter only: for hotter ones).  ``outermost``
        skips re-entrant calls on the same thread (``Module.__call__``
        recurses through every sub-module).  ``op_from(args, kwargs)``
        names the operation a call belongs to.
        """
        if mode not in ("span", "time", "count"):
            raise ValueError(f"unknown wrap mode {mode!r}")
        original = vars(owner)[attr]
        tracer = self

        if mode == "count":
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if tracer.enabled:
                    tracer._state().calls[name] += 1
                return original(*args, **kwargs)
        else:
            record = mode == "span"

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return original(*args, **kwargs)
                if outermost:
                    open_names = tracer._state().open
                    if name in open_names:
                        return original(*args, **kwargs)
                    open_names.add(name)
                op = op_from(args, kwargs) if op_from is not None else None
                frame = tracer._enter(name, op, record)
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer._exit(frame)
                    if outermost:
                        open_names.discard(name)

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        """Put every replaced attribute back, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @property
    def patched(self) -> list[tuple[object, str]]:
        return [(owner, attr) for owner, attr, _ in self._patched]


def write_chrome_trace(path, spans, origin: float | None = None) -> int:
    """Write spans as Chrome-trace JSON (``ph == "X"``, µs); returns count."""
    if origin is None:
        origin = spans[0][2] if spans else 0.0
    events = []
    for span_id, name, start, end, parent, op_id, tid in spans:
        events.append({
            "name": name, "cat": name.split(".", 1)[0], "ph": "X",
            "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
            "pid": 0, "tid": tid,
            "args": {"id": span_id, "parent": parent, "op_id": op_id},
        })
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
    return len(events)
