"""The rule framework and the distributed-correctness rule pack.

Every rule is a :class:`Rule` subclass with a stable ID (``RPR001``...),
a severity, and a ``check(ctx)`` returning :class:`~.findings.Finding`
objects; rules that can repair their finding attach text
:class:`~.findings.Edit` objects (applied by ``repro lint --fix``).

The pack targets the hazard classes that actually break the paper's
scaling runs (Kurth et al. §V–§VI) and this repo's simulated-MPI stack:

====== ============================ ======== ===== =========================
ID     name                         severity fix   hazard
====== ============================ ======== ===== =========================
RPR001 collective-in-rank-branch    error    no    rank-divergent collective
                                                   -> deadlock
RPR002 broad-except                 warning  bare  swallows ReproError /
                                                   FaultInjected
RPR003 unseeded-rng                 warning  no    rank-divergent data or
                                                   init streams
RPR005 mutable-default-arg          warning  yes   state shared across calls
RPR006 float16-outside-precision    warning  no    bypasses loss-scaled FP16
                                                   path
RPR007 stale-suppression            info     yes   disable comment matching
                                                   no finding
RPR008 raw-time-call                warning  no    bypasses the telemetry
                                                   clock (breaks virtual
                                                   time)
====== ============================ ======== ===== =========================
"""
from __future__ import annotations

import ast
import hashlib

from .findings import Edit, Finding

__all__ = [
    "FileContext",
    "Rule",
    "CollectiveInRankBranch",
    "BroadExcept",
    "UnseededRng",
    "MutableDefaultArg",
    "Float16OutsidePrecision",
    "StaleSuppression",
    "RawTimeCall",
    "DEFAULT_RULES",
    "default_rules",
    "rule_catalog",
    "rules_signature",
]


class FileContext:
    """Everything a rule needs about one file: path, source, parsed tree."""

    def __init__(self, rel_path: str, source: str, tree: ast.AST | None = None):
        self.rel_path = rel_path.replace("\\", "/")
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source) if tree is None else tree

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def segment(self, node: ast.AST) -> str | None:
        return ast.get_source_segment(self.source, node)


class Rule:
    """Base class: subclass, set the class attributes, implement ``check``."""

    id: str = "RPR000"
    name: str = "abstract-rule"
    severity: str = "warning"
    description: str = ""
    autofix: bool = False
    version: int = 1        # bump to invalidate cached results for this rule

    def check(self, ctx: FileContext) -> list[Finding]:
        raise NotImplementedError

    def finding(self, ctx: FileContext, line: int, col: int, message: str,
                edits: tuple[Edit, ...] = (), end_line: int = 0) -> Finding:
        return Finding(rule_id=self.id, severity=self.severity,
                       path=ctx.rel_path, line=line, col=col, message=message,
                       line_text=ctx.line_text(line), edits=edits,
                       end_line=end_line)

    def node_finding(self, ctx: FileContext, node: ast.AST, message: str,
                     edits: tuple[Edit, ...] = ()) -> Finding:
        end_line = getattr(node, "end_lineno", None) or 0
        return self.finding(ctx, node.lineno, node.col_offset, message, edits,
                            end_line=end_line)


# ---------------------------------------------------------------------------
# RPR001 — collectives inside rank-conditional branches
# ---------------------------------------------------------------------------

#: World / horovod methods every rank must enter together.
COLLECTIVE_NAMES = frozenset({
    "broadcast", "gather", "allgather", "all_gather", "exchange",
    "allreduce", "all_reduce", "allreduce_gradients", "reduce_scatter",
    "alltoall", "barrier",
})

#: Names whose value identifies "which rank am I" in this codebase.
RANK_NAMES = frozenset({"rank", "my_rank", "rank_id", "local_rank",
                        "world_rank", "node_rank"})


def _mentions_rank(test: ast.AST) -> bool:
    for node in ast.walk(test):
        if isinstance(node, ast.Name) and node.id in RANK_NAMES:
            return True
        if isinstance(node, ast.Attribute) and node.attr in RANK_NAMES:
            return True
    return False


def _call_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


class CollectiveInRankBranch(Rule):
    id = "RPR001"
    name = "collective-in-rank-branch"
    severity = "error"
    description = ("A collective (broadcast/gather/exchange/allreduce/"
                   "barrier...) is called inside a rank-conditional branch; "
                   "ranks taking the other path never enter it and the job "
                   "deadlocks. Hoist the collective above the branch.")

    def check(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []

        def visit(node: ast.AST, in_rank_branch: bool) -> None:
            # A new function/class scope resets the condition: the branch
            # guards the *definition*, not the call.
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef, ast.Lambda)):
                in_rank_branch = False
            if isinstance(node, ast.Call) and in_rank_branch:
                name = _call_name(node)
                if name in COLLECTIVE_NAMES:
                    findings.append(self.node_finding(
                        ctx, node,
                        f"collective '{name}' called inside a "
                        f"rank-conditional branch: ranks on the other path "
                        f"never reach it (deadlock); hoist it above the "
                        f"branch"))
            if isinstance(node, ast.If) and _mentions_rank(node.test):
                visit(node.test, in_rank_branch)
                for child in node.body + node.orelse:
                    visit(child, True)
                return
            for child in ast.iter_child_nodes(node):
                visit(child, in_rank_branch)

        visit(ctx.tree, False)
        return findings


# ---------------------------------------------------------------------------
# RPR002 — bare / broad except
# ---------------------------------------------------------------------------

_BROAD_TYPES = frozenset({"Exception", "BaseException"})


def _reraises(handler: ast.ExceptHandler) -> bool:
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise) and node.exc is None:
            return True
    return False


class BroadExcept(Rule):
    id = "RPR002"
    name = "broad-except"
    severity = "warning"
    autofix = True
    description = ("A bare 'except:' or 'except Exception:' swallows "
                   "ReproError and FaultInjected, hiding injected faults and "
                   "protocol bugs. Catch the concrete exception (handlers "
                   "that re-raise are exempt). Autofix rewrites bare "
                   "'except:' to 'except Exception:'.")

    def _broad_name(self, type_node: ast.AST | None) -> str | None:
        if type_node is None:
            return ""
        nodes = (type_node.elts if isinstance(type_node, ast.Tuple)
                 else [type_node])
        for n in nodes:
            if isinstance(n, ast.Name) and n.id in _BROAD_TYPES:
                return n.id
        return None

    def _bare_fix(self, ctx: FileContext,
                  handler: ast.ExceptHandler) -> tuple[Edit, ...]:
        line = ctx.lines[handler.lineno - 1]
        head = line[handler.col_offset:]
        colon = head.find(":")
        if colon < 0 or head[:colon].strip() != "except":
            return ()
        return (Edit(handler.lineno, handler.col_offset,
                     handler.lineno, handler.col_offset + colon + 1,
                     "except Exception:"),)

    def check(self, ctx: FileContext) -> list[Finding]:
        findings = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler) or _reraises(node):
                continue
            broad = self._broad_name(node.type)
            if broad is None:
                continue
            if broad == "":
                findings.append(self.node_finding(
                    ctx, node,
                    "bare 'except:' swallows ReproError/FaultInjected (and "
                    "KeyboardInterrupt); catch a concrete exception",
                    edits=self._bare_fix(ctx, node)))
            else:
                findings.append(self.node_finding(
                    ctx, node,
                    f"'except {broad}:' swallows ReproError/FaultInjected; "
                    f"catch the concrete exception or re-raise"))
        return findings


# ---------------------------------------------------------------------------
# RPR003 — unseeded RNG
# ---------------------------------------------------------------------------

#: Global-state functions of the stdlib ``random`` module.
_STDLIB_RANDOM_FUNCS = frozenset({
    "random", "randint", "randrange", "getrandbits", "choice", "choices",
    "shuffle", "sample", "uniform", "triangular", "gauss", "normalvariate",
    "lognormvariate", "expovariate", "betavariate", "gammavariate",
    "vonmisesvariate", "paretovariate", "weibullvariate", "seed",
})

#: np.random attributes that are fine to touch.
_NP_RANDOM_OK = frozenset({"Generator", "SeedSequence", "BitGenerator",
                           "PCG64", "Philox", "SFC64", "MT19937"})


class UnseededRng(Rule):
    id = "RPR003"
    name = "unseeded-rng"
    severity = "warning"
    description = ("Module-level RNG state (random.* / np.random.*) draws a "
                   "different stream on every rank and run, breaking the "
                   "deterministic seeded staging the paper's scaling relies "
                   "on. Construct numpy.random.default_rng(seed) (or "
                   "random.Random(seed)) and thread it through.")

    def _module_aliases(self, ctx: FileContext) -> tuple[set, set, set]:
        random_mods, numpy_mods, from_random = set(), set(), set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        random_mods.add(alias.asname or "random")
                    elif alias.name == "numpy":
                        numpy_mods.add(alias.asname or "numpy")
                    elif alias.name == "numpy.random" and alias.asname:
                        random_mods.add(alias.asname)  # treated like np.random
            elif isinstance(node, ast.ImportFrom) and node.module == "random":
                for alias in node.names:
                    if alias.name in _STDLIB_RANDOM_FUNCS | {"Random"}:
                        from_random.add((alias.asname or alias.name,
                                         alias.name))
        return random_mods, numpy_mods, from_random

    def check(self, ctx: FileContext) -> list[Finding]:
        random_mods, numpy_mods, from_random = self._module_aliases(ctx)
        from_names = dict(from_random)
        findings = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            # random.<fn>(...) or <np.random alias>.<fn>(...)
            if (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id in random_mods):
                if func.attr == "Random" and node.args:
                    continue        # random.Random(seed) is the sanctioned API
                if func.attr == "default_rng" and node.args:
                    continue
                if (func.attr in _STDLIB_RANDOM_FUNCS
                        or func.attr in {"Random", "default_rng"}
                        or func.attr == "RandomState"):
                    findings.append(self.node_finding(
                        ctx, node,
                        f"'{func.value.id}.{func.attr}' uses module-global "
                        f"RNG state; use numpy.random.default_rng(seed) / "
                        f"random.Random(seed) so every rank draws a "
                        f"deterministic stream"))
                continue
            # np.random.<fn>(...) / numpy.random.<fn>(...)
            if (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Attribute)
                    and func.value.attr == "random"
                    and isinstance(func.value.value, ast.Name)
                    and func.value.value.id in (numpy_mods | {"np", "numpy"})):
                if func.attr in _NP_RANDOM_OK:
                    continue
                if func.attr == "default_rng":
                    if not node.args:
                        findings.append(self.node_finding(
                            ctx, node,
                            "numpy.random.default_rng() without a seed is "
                            "entropy-seeded: every rank diverges; pass an "
                            "explicit seed"))
                    continue
                if func.attr == "RandomState" and node.args:
                    message = (f"legacy 'np.random.{func.attr}' API; "
                               f"construct numpy.random.default_rng(seed)")
                else:
                    message = (f"'np.random.{func.attr}' uses module-global "
                               f"RNG state; construct "
                               f"numpy.random.default_rng(seed)")
                findings.append(self.node_finding(ctx, node, message))
                continue
            # from random import shuffle; shuffle(...)
            if isinstance(func, ast.Name) and func.id in from_names:
                original = from_names[func.id]
                if original == "Random" and node.args:
                    continue
                findings.append(self.node_finding(
                    ctx, node,
                    f"'{original}' (from random) uses module-global RNG "
                    f"state; use random.Random(seed) / "
                    f"numpy.random.default_rng(seed)"))
        return findings


# ---------------------------------------------------------------------------
# RPR005 — mutable default arguments
# ---------------------------------------------------------------------------

_MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray", "defaultdict",
                            "deque", "Counter", "OrderedDict"})


def _is_mutable_default(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set,
                         ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = _call_name(node)
        return name in _MUTABLE_CALLS
    return False


def _safe_to_autofix(node: ast.AST) -> bool:
    """Only literals/no-arg constructors are safe to re-create per call."""
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return not (getattr(node, "elts", None)
                    or getattr(node, "keys", None)
                    or getattr(node, "values", None))
    if isinstance(node, ast.Call):
        return (not node.args and not node.keywords
                and _call_name(node) in {"list", "dict", "set"})
    return False


class MutableDefaultArg(Rule):
    id = "RPR005"
    name = "mutable-default-arg"
    severity = "warning"
    autofix = True
    description = ("A mutable default argument is created once at def time "
                   "and shared across every call (and every rank stepping "
                   "through the same code object). Autofix rewrites "
                   "'x=[]' to 'x=None' plus an 'if x is None:' guard.")

    def _guard_edits(self, ctx: FileContext, fn: ast.AST, arg_name: str,
                     default: ast.AST) -> tuple[Edit, ...]:
        if not _safe_to_autofix(default):
            return ()
        body = fn.body
        insert_at = body[0]
        if (len(body) > 1 and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            insert_at = body[1]         # keep the docstring first
        if insert_at.lineno == fn.lineno:
            return ()                   # one-line def: punt to the human
        literal = ctx.segment(default) or "[]"
        indent = " " * insert_at.col_offset
        guard = (f"{indent}if {arg_name} is None:\n"
                 f"{indent}    {arg_name} = {literal}\n")
        return (
            Edit(default.lineno, default.col_offset,
                 default.end_lineno, default.end_col_offset, "None"),
            Edit(insert_at.lineno, 0, insert_at.lineno, 0, guard),
        )

    def check(self, ctx: FileContext) -> list[Finding]:
        findings = []
        for fn in ast.walk(ctx.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = fn.args
            pos = args.posonlyargs + args.args
            pairs = list(zip(pos[len(pos) - len(args.defaults):],
                             args.defaults))
            pairs += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                      if d is not None]
            for arg, default in pairs:
                if _is_mutable_default(default):
                    findings.append(self.node_finding(
                        ctx, default,
                        f"mutable default for '{arg.arg}' is shared across "
                        f"calls; default to None and construct inside the "
                        f"body",
                        edits=self._guard_edits(ctx, fn, arg.arg, default)))
        return findings


# ---------------------------------------------------------------------------
# RPR006 — float16 outside the precision layer
# ---------------------------------------------------------------------------

class Float16OutsidePrecision(Rule):
    id = "RPR006"
    name = "float16-outside-precision"
    severity = "warning"
    description = ("A raw float16 literal/cast outside repro.framework's "
                   "precision layer bypasses FP32 master weights and loss "
                   "scaling (§IV-B): small gradients silently flush to "
                   "zero. Go through framework.dtypes.FP16 / "
                   "framework.precision instead.")

    #: The precision layer itself, its dedicated test surface, and the
    #: analyzer (whose rules must be able to *name* the hazard).
    exempt = ("framework/precision.py", "framework/dtypes.py")
    exempt_dirs = ("tests/framework/", "repro/analysis/", "tests/analysis/")

    def _exempt(self, rel_path: str) -> bool:
        return (rel_path.endswith(self.exempt)
                or any(d in rel_path for d in self.exempt_dirs))

    def check(self, ctx: FileContext) -> list[Finding]:
        if self._exempt(ctx.rel_path):
            return []
        findings = []
        for node in ast.walk(ctx.tree):
            if (isinstance(node, ast.Attribute) and node.attr == "float16"
                    and isinstance(node.value, ast.Name)
                    and node.value.id in ("np", "numpy")):
                findings.append(self.node_finding(
                    ctx, node,
                    "raw np.float16 outside the precision layer bypasses "
                    "loss scaling; use framework.dtypes.FP16 or "
                    "framework.precision"))
            elif isinstance(node, ast.Constant) and node.value == "float16":
                findings.append(self.node_finding(
                    ctx, node,
                    "'float16' dtype string outside the precision layer "
                    "bypasses loss scaling; use framework.dtypes.FP16 or "
                    "framework.precision"))
        return findings


# ---------------------------------------------------------------------------
# RPR007 — stale suppression (emitted by the walker, catalogued here)
# ---------------------------------------------------------------------------

class StaleSuppression(Rule):
    id = "RPR007"
    name = "stale-suppression"
    severity = "info"
    autofix = True
    description = ("A '# repro-lint: disable=...' comment suppressed "
                   "nothing: the finding it silenced is gone. Autofix "
                   "removes the comment. (Emitted by the walker after "
                   "suppression matching, not by an AST pass.)")

    def check(self, ctx: FileContext) -> list[Finding]:
        return []       # the walker emits these after matching suppressions


# ---------------------------------------------------------------------------
# RPR008 — raw clock reads inside instrumented modules
# ---------------------------------------------------------------------------

#: ``time`` module functions that read a clock directly.
_RAW_TIME_FUNCS = frozenset({
    "time", "perf_counter", "perf_counter_ns", "monotonic", "monotonic_ns",
    "process_time", "process_time_ns", "time_ns",
})


class RawTimeCall(Rule):
    id = "RPR008"
    name = "raw-time-call"
    severity = "warning"
    description = ("A direct time.time()/time.perf_counter() call inside an "
                   "instrumented repro module reads the wall clock behind "
                   "the telemetry session's back: under a SimulatedClock "
                   "the measurement is meaningless and virtual-time traces "
                   "skew. Route through the session clock "
                   "(telemetry.get_active().tracer.clock.now()) or take a "
                   "clock parameter.")

    #: The clock abstraction itself is the one sanctioned wall-clock reader.
    exempt_suffixes = ("telemetry/clock.py",)

    def _instrumented(self, rel_path: str) -> bool:
        return "src/repro/" in rel_path or rel_path.startswith("repro/")

    def _time_aliases(self, ctx: FileContext) -> tuple[set, dict]:
        mods: set[str] = set()
        from_funcs: dict[str, str] = {}
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "time":
                        mods.add(alias.asname or "time")
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name in _RAW_TIME_FUNCS:
                        from_funcs[alias.asname or alias.name] = alias.name
        return mods, from_funcs

    def check(self, ctx: FileContext) -> list[Finding]:
        if (not self._instrumented(ctx.rel_path)
                or ctx.rel_path.endswith(self.exempt_suffixes)):
            return []
        mods, from_funcs = self._time_aliases(ctx)
        findings = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = None
            if (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id in mods
                    and func.attr in _RAW_TIME_FUNCS):
                name = f"{func.value.id}.{func.attr}"
            elif isinstance(func, ast.Name) and func.id in from_funcs:
                name = from_funcs[func.id]
            if name is not None:
                findings.append(self.node_finding(
                    ctx, node,
                    f"'{name}()' reads the wall clock directly in an "
                    f"instrumented module; use the telemetry session clock "
                    f"so simulated/virtual time stays coherent"))
        return findings


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

DEFAULT_RULES: tuple[type[Rule], ...] = (
    CollectiveInRankBranch,
    BroadExcept,
    UnseededRng,
    MutableDefaultArg,
    Float16OutsidePrecision,
    StaleSuppression,
    RawTimeCall,
)


def default_rules() -> list[Rule]:
    return [cls() for cls in DEFAULT_RULES]


def rule_catalog(rules: list[Rule] | None = None) -> list[dict]:
    rows = []
    for rule in rules or default_rules():
        rows.append({"id": rule.id, "name": rule.name,
                     "severity": rule.severity, "autofix": rule.autofix,
                     "description": rule.description})
    return rows


def rules_signature(rules: list[Rule]) -> str:
    """Cache key component: changes whenever the rule set changes."""
    blob = ";".join(f"{r.id}:{r.name}:v{r.version}"
                    for r in sorted(rules, key=lambda r: r.id))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
