"""Per-function summaries for the whole-program analyzer.

A :class:`FunctionSummary` is a *pure function of its file's content*: it
records everything the inter-procedural rules (RPR101–RPR104) need to know
about one function without ever looking at another file.  Cross-function
facts are kept **symbolic** — a call's result is the label ``call:<k>``,
a parameter's value is ``param:<i>`` — and resolved later by the global
fixpoint in :mod:`repro.analysis.deeprules`.  That split is what makes the
dependency-hash cache in :mod:`repro.analysis.project` sound: a file's
summaries only change when the file changes.

Concrete taint labels:

``fp16``
    A raw half-precision value: ``np.float16`` / ``np.half`` references,
    ``"float16"``/``"half"`` dtype strings, and casts thereof.  The
    sanctioned ``framework.dtypes.FP16`` channel is *not* a source.
``rng``
    An unseeded generator: ``default_rng()`` / ``Random()`` /
    ``RandomState()`` called with no seed argument.

Calls recorded per function carry their syntactic context — enclosing
rank-conditional branch (same semantics as RPR001, both arms, scope reset
at nested defs) and enclosing ``try`` whose handler broadly swallows
exceptions (same broad/re-raise semantics as RPR002).
"""
from __future__ import annotations

import ast
from dataclasses import dataclass, field

from .callgraph import FunctionInfo, call_ref
from .flow import TaintAnalysis, TaintPolicy, build_cfg, replay, solve_forward
from .rules import COLLECTIVE_NAMES, _mentions_rank

__all__ = [
    "CallSite",
    "SinkSite",
    "FunctionSummary",
    "summarize_function",
    "ACCUMULATION_NAMES",
    "DRAW_NAMES",
]

#: Reduction-style calls where silent fp16 accumulation loses precision.
ACCUMULATION_NAMES = frozenset({
    "sum", "mean", "dot", "matmul", "einsum", "cumsum", "prod",
    "average", "tensordot",
})

#: Methods that draw from an RNG; a draw on an unseeded generator is the
#: RPR103 sink.
DRAW_NAMES = frozenset({
    "random", "normal", "uniform", "integers", "randint", "choice",
    "shuffle", "standard_normal", "rand", "randn", "sample", "permutation",
})

#: Calls that merely re-shape / re-type their input: result inherits the
#: argument labels (this is how an fp16 cast propagates).
_CAST_NAMES = frozenset({
    "astype", "asarray", "array", "ascontiguousarray", "cast", "copy",
    "reshape", "ravel", "view", "full", "zeros", "ones", "empty",
    "full_like", "zeros_like", "ones_like", "empty_like",
})

_RNG_FACTORIES = frozenset({"default_rng", "Random", "RandomState"})

_FP16_ATTRS = frozenset({"float16", "half"})
_FP16_STRINGS = frozenset({"float16", "half"})

_BROAD_HANDLER_TYPES = frozenset({"Exception", "BaseException"})


# ---------------------------------------------------------------------------
# Summary data model (JSON-serializable)
# ---------------------------------------------------------------------------

@dataclass
class CallSite:
    """One name-shaped call inside a function."""

    ref: str                     # dotted target as written (``self._sync``)
    line: int
    col: int
    end_line: int
    rank_guard: int | None = None      # line of the guarding rank-``if``
    broad_handler: int | None = None   # line of the swallowing handler
    arg_labels: list = field(default_factory=list)    # list[list[str]]
    kw_labels: dict = field(default_factory=dict)     # name -> list[str]

    def as_dict(self) -> dict:
        return {
            "ref": self.ref, "line": self.line, "col": self.col,
            "end_line": self.end_line, "rank_guard": self.rank_guard,
            "broad_handler": self.broad_handler,
            "arg_labels": self.arg_labels, "kw_labels": self.kw_labels,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CallSite":
        return cls(**data)


@dataclass
class SinkSite:
    """A site where tainted data would be a finding (kind decides which)."""

    kind: str                    # "acc" | "loss" | "draw"
    name: str                    # call name as written
    line: int
    col: int
    end_line: int
    labels: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {"kind": self.kind, "name": self.name, "line": self.line,
                "col": self.col, "end_line": self.end_line,
                "labels": self.labels}

    @classmethod
    def from_dict(cls, data: dict) -> "SinkSite":
        return cls(**data)


@dataclass
class FunctionSummary:
    qname: str
    module: str
    params: list = field(default_factory=list)        # names, in order
    calls: list = field(default_factory=list)         # list[CallSite]
    #: (name, line, col, end_line) of direct collective calls.
    collectives: list = field(default_factory=list)
    sinks: list = field(default_factory=list)         # list[SinkSite]
    return_labels: list = field(default_factory=list)
    #: param name -> concrete labels of its default expression.
    default_labels: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "qname": self.qname, "module": self.module,
            "params": self.params,
            "calls": [c.as_dict() for c in self.calls],
            "collectives": self.collectives,
            "sinks": [s.as_dict() for s in self.sinks],
            "return_labels": self.return_labels,
            "default_labels": self.default_labels,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FunctionSummary":
        return cls(
            qname=data["qname"], module=data["module"],
            params=list(data.get("params", [])),
            calls=[CallSite.from_dict(c) for c in data.get("calls", [])],
            collectives=[tuple(c) for c in data.get("collectives", [])],
            sinks=[SinkSite.from_dict(s) for s in data.get("sinks", [])],
            return_labels=list(data.get("return_labels", [])),
            default_labels={k: list(v) for k, v in
                            data.get("default_labels", {}).items()},
        )


# ---------------------------------------------------------------------------
# Syntactic context pass: rank guards, broad handlers, call index
# ---------------------------------------------------------------------------

def _is_broad_swallow(handler: ast.ExceptHandler) -> bool:
    """Bare/Exception/BaseException handler that never bare-re-raises."""
    typ = handler.type
    if typ is None:
        broad = True
    elif isinstance(typ, ast.Name):
        broad = typ.id in _BROAD_HANDLER_TYPES
    elif isinstance(typ, ast.Tuple):
        broad = any(isinstance(e, ast.Name) and e.id in _BROAD_HANDLER_TYPES
                    for e in typ.elts)
    else:
        broad = False
    if not broad:
        return False
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise) and node.exc is None:
            return False
    return True


class _ContextPass:
    """Walks a function body (not into nested defs — same scope-reset rule
    as RPR001) indexing every name-shaped call with its syntactic context."""

    def __init__(self):
        self.calls: list[CallSite] = []
        self.by_pos: dict[tuple[int, int], int] = {}
        self.collectives: list = []
        self.sink_pos: dict[tuple[int, int], tuple[str, str]] = {}

    def run(self, fn) -> None:
        for stmt in fn.body:
            self._visit(stmt, None, None)

    def _visit(self, node, rank_guard, broad_handler) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Lambda)):
            return
        if isinstance(node, ast.Call):
            self._record(node, rank_guard, broad_handler)
        if isinstance(node, ast.If) and _mentions_rank(node.test):
            self._visit(node.test, rank_guard, broad_handler)
            for child in node.body + node.orelse:
                self._visit(child, node.lineno, broad_handler)
            return
        if isinstance(node, ast.Try):
            swallow = next((h.lineno for h in node.handlers
                            if _is_broad_swallow(h)), None)
            inner = swallow if swallow is not None else broad_handler
            for child in node.body + node.orelse:
                self._visit(child, rank_guard, inner)
            for h in node.handlers:
                for child in h.body:
                    self._visit(child, rank_guard, broad_handler)
            for child in node.finalbody:
                self._visit(child, rank_guard, broad_handler)
            return
        for child in ast.iter_child_nodes(node):
            self._visit(child, rank_guard, broad_handler)

    def _record(self, call: ast.Call, rank_guard, broad_handler) -> None:
        ref = call_ref(call)
        if ref is None:
            return
        name = ref.rsplit(".", 1)[-1]
        pos = (call.lineno, call.col_offset)
        end_line = getattr(call, "end_lineno", call.lineno) or call.lineno
        if name in COLLECTIVE_NAMES:
            self.collectives.append(
                (name, call.lineno, call.col_offset, end_line,
                 rank_guard, broad_handler))
            return
        self.by_pos[pos] = len(self.calls)
        self.calls.append(CallSite(
            ref=ref, line=call.lineno, col=call.col_offset,
            end_line=end_line, rank_guard=rank_guard,
            broad_handler=broad_handler))
        if name in ACCUMULATION_NAMES:
            self.sink_pos[pos] = ("acc", name)
        elif "loss" in name or "cross_entropy" in name:
            self.sink_pos[pos] = ("loss", name)
        elif name in DRAW_NAMES:
            self.sink_pos[pos] = ("draw", name)


# ---------------------------------------------------------------------------
# Taint policy
# ---------------------------------------------------------------------------

def _dotted(node) -> str | None:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_fp16_expr(node) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value in _FP16_STRINGS
    if isinstance(node, ast.Attribute) and node.attr in _FP16_ATTRS:
        return True
    if isinstance(node, ast.Name) and node.id in _FP16_ATTRS:
        return True
    return False


class _SummaryPolicy(TaintPolicy):
    def __init__(self, ctx: _ContextPass):
        self.ctx = ctx
        self.returns: set[str] = set()
        self.sinks: list[SinkSite] = []
        self._sink_seen: set[tuple[int, int]] = set()

    def call_result(self, node: ast.Call, base, args, kwargs) -> frozenset:
        out: set[str] = set()
        ref = call_ref(node)
        name = ref.rsplit(".", 1)[-1] if ref else None
        if ref is not None and ref.rsplit(".", 1)[-1] in _FP16_ATTRS:
            out.add("fp16")                     # np.float16(x) constructor
        if name in _RNG_FACTORIES and not node.args and not node.keywords:
            out.add("rng")                      # unseeded generator
        if name in _CAST_NAMES:
            out |= base
            for labels in args:
                out |= labels
            for labels in kwargs.values():
                out |= labels
        idx = self.ctx.by_pos.get((node.lineno, node.col_offset))
        if idx is not None:
            out.add(f"call:{idx}")
        return frozenset(out)

    def record_call(self, node: ast.Call, base, args, kwargs) -> None:
        pos = (node.lineno, node.col_offset)
        idx = self.ctx.by_pos.get(pos)
        if idx is not None:
            site = self.ctx.calls[idx]
            site.arg_labels = [sorted(a) for a in args]
            site.kw_labels = {k: sorted(v) for k, v in kwargs.items()}
        sink = self.ctx.sink_pos.get(pos)
        if sink is not None and pos not in self._sink_seen:
            self._sink_seen.add(pos)
            kind, name = sink
            labels: set[str] = set(base)
            if kind != "draw":
                # Data flows into an accumulation/loss through arguments
                # as well as the receiver; a draw only cares who it draws
                # *from* (the receiver).
                for a in args:
                    labels |= a
                for v in kwargs.values():
                    labels |= v
            call = self.ctx.calls[idx] if idx is not None else None
            end_line = call.end_line if call else node.lineno
            self.sinks.append(SinkSite(
                kind=kind, name=name, line=node.lineno,
                col=node.col_offset, end_line=end_line,
                labels=sorted(labels)))

    def record_return(self, node: ast.Return, labels) -> None:
        self.returns |= set(labels)


class _SummaryTaint(TaintAnalysis):
    """Adds the raw-fp16 sources on top of the generic evaluator."""

    def eval(self, node, state):
        if node is not None and _is_fp16_expr(node):
            return frozenset({"fp16"})
        return super().eval(node, state)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _param_names(fn) -> list[str]:
    a = fn.args
    names = [p.arg for p in (*a.posonlyargs, *a.args)]
    if a.vararg:
        names.append(a.vararg.arg)
    names.extend(p.arg for p in a.kwonlyargs)
    if a.kwarg:
        names.append(a.kwarg.arg)
    return names


def _default_map(fn, taint: TaintAnalysis) -> dict[str, set]:
    """Concrete labels of each defaulted parameter's default expression."""
    a = fn.args
    out: dict[str, set] = {}
    positional = [*a.posonlyargs, *a.args]
    for param, default in zip(positional[len(positional) - len(a.defaults):],
                              a.defaults):
        labels = {l for l in taint.eval(default, {}) if ":" not in l}
        if labels:
            out[param.arg] = labels
    for param, default in zip(a.kwonlyargs, a.kw_defaults):
        if default is None:
            continue
        labels = {l for l in taint.eval(default, {}) if ":" not in l}
        if labels:
            out[param.arg] = labels
    return out


def summarize_function(info: FunctionInfo) -> FunctionSummary:
    fn = info.node
    ctx = _ContextPass()
    ctx.run(fn)
    policy = _SummaryPolicy(ctx)
    taint = _SummaryTaint(policy)

    params = _param_names(fn)
    # Defaults are evaluated with recording off: a call in a default is
    # outside the body's call index.
    defaults = _default_map(fn, taint)

    entry: dict[str, frozenset] = {}
    start = 1 if params and params[0] in ("self", "cls") else 0
    for i, name in enumerate(params):
        labels = {f"param:{i}"} if i >= start else set()
        labels |= defaults.get(name, set())
        entry[name] = frozenset(labels)

    cfg = build_cfg(fn)
    in_states = solve_forward(cfg, taint, entry)
    policy.recording = True
    for _stmt, _state in replay(cfg, taint, in_states):
        pass
    policy.recording = False

    return FunctionSummary(
        qname=info.qname, module=info.module, params=params,
        calls=ctx.calls,
        collectives=[tuple(c) for c in ctx.collectives],
        sinks=policy.sinks,
        return_labels=sorted(policy.returns),
        default_labels={k: sorted(v) for k, v in defaults.items()},
    )
